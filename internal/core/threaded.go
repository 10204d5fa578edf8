package core

import (
	"fmt"

	"sedspec/internal/ir"
)

// Threaded-code lowering: the executable specification form.
//
// Seal flattens the mutable Spec into the dense SealedSpec tables and,
// from the spec's block DSOD and those tables, lowers one contiguous
// instruction stream the checker executes by direct dispatch (one
// indirect call per instruction) instead of re-decoding op codes through
// a switch. Three properties drive the layout:
//
//   - operands are pre-flattened: every field a handler reads on a clean
//     round (temp indices, immediates and width masks, resolved successor
//     pcs, precomputed call-frame sizes) lives in the instruction record
//     itself, int32-sized where possible, so a handler never chases the
//     program or the sealed block tables on the fast path. What only an
//     anomaly report or a switch's arm lookup reads sits in a parallel
//     cold table (TCold), so a round touches fewer instruction bytes;
//   - a peephole fuser merges the dominant check-strategy op pairs
//     (load+arith, const+arith, bufload+store, and a trailing compare
//     feeding a conditional branch) into single fused instructions, halving
//     dispatches on those sequences;
//   - step accounting is batched: each instruction carries the walker-step
//     count accumulated since the last flush site (block entry or call), so
//     the interpreter updates its step counter once per block transition
//     rather than once per op, while anomalies still report the exact
//     per-op step totals the reference engine produces.
//
// The sealed spec keeps only the lowering report. The stream itself goes
// to the one caller that binds it (checker.Compile or checker.New), so a
// compiled spec retains exactly one executable form.

// TKind enumerates threaded-code instruction kinds. The checker maps each
// kind to a handler function at engine construction.
type TKind uint8

const (
	// TNop marks an op with no simulated effect (opaque calls, unknown
	// ops): lowering emits no instruction for it and folds its step into
	// the next one.
	TNop TKind = iota
	// Plain op instructions, one per DSOD op.
	TConst
	TLoad
	TLoadFunc
	TArith
	TStore
	TStoreFunc
	TBufLoad
	TBufStore
	TIOToBuf
	TDMAToBuf
	TDMAFromBuf
	TDMARead
	TDMAWrite
	TIOIn
	TIOAddr
	TIOLen
	TIOIsWrite
	TEnvRead
	TCall
	TCallPtr
	// Fused op pairs (the peephole patterns).
	TLoadArith
	TConstArith
	TBufLoadStore
	TConstStore
	TArithStore
	TLoadConst
	TConstConst
	TConstBufStore
	TBufStoreConst
	TStoreConst
	TStoreLoad
	// Block terminators, one per live block; TBranchArith additionally
	// absorbs a trailing compare that feeds the branch condition.
	THalt
	TReturn
	TNext
	TNoSucc
	TBranch
	TBranchArith
	TSwitch
	// TDangling is the shared pc-0 instruction tombstone successors resolve
	// to; executing it raises the dangling-successor anomaly.
	TDangling

	numTKinds
)

var tkindNames = [numTKinds]string{
	TNop: "nop", TConst: "const", TLoad: "load", TLoadFunc: "loadfunc",
	TArith: "arith", TStore: "store", TStoreFunc: "storefunc",
	TBufLoad: "bufload", TBufStore: "bufstore", TIOToBuf: "iotobuf",
	TDMAToBuf: "dmatobuf", TDMAFromBuf: "dmafrombuf", TDMARead: "dmaread",
	TDMAWrite: "dmawrite", TIOIn: "ioin", TIOAddr: "ioaddr", TIOLen: "iolen",
	TIOIsWrite: "ioiswrite", TEnvRead: "envread", TCall: "call",
	TCallPtr: "callptr", TLoadArith: "load+arith", TConstArith: "const+arith",
	TBufLoadStore: "bufload+store", TConstStore: "const+store",
	TArithStore: "arith+store", TLoadConst: "load+const",
	TConstConst: "const+const", TConstBufStore: "const+bufstore",
	TBufStoreConst: "bufstore+const", TStoreConst: "store+const",
	TStoreLoad: "store+load", THalt: "halt", TReturn: "return",
	TNext: "next", TNoSucc: "nosucc", TBranch: "branch",
	TBranchArith: "arith+branch", TSwitch: "switch", TDangling: "dangling",
}

func (k TKind) String() string {
	if int(k) < len(tkindNames) && tkindNames[k] != "" {
		return tkindNames[k]
	}
	return fmt.Sprintf("TKind(%d)", uint8(k))
}

// TOp is one threaded-code instruction: the operands of one DSOD op (or a
// fused pair, or a block terminator) flattened into immediate fields.
//
// The primary operand bank (Dst, A, B, Field, Imm, ...) carries the first
// — usually only — op; the secondary bank carries a fused pair's second
// op, and doubles as the branch-condition bank for TBranch/TBranchArith
// (A2 Rel B2 under Imm2's mask). TSwitch keeps its selector temp in A2.
// Source temps map onto A and B by role: A is op.A, or a buffer op's
// index op.Idx; B is op.B, or the stored value op.Src of stores, buffer
// stores and DMA writes. Ops that read more (DMA and I/O copies) take the
// rest from their ir.Op in TCold.
type TOp struct {
	// Imm is the primary op's immediate: a const's value, an env read's
	// kind, a call's callee temp-bank size, or the value mask of an op
	// computed at a width (arith, DMA read). Imm2 is the secondary bank's,
	// the branch compare's mask included.
	Imm, Imm2 uint64

	// Next is where dispatch continues: the following instruction, a
	// call's callee entry, or a transition's (taken) successor block. ID
	// and Edge are that successor's ES id and trained-edge slot. Next2,
	// ID2 and Edge2 are the alternative: a call's resume pc, or a branch's
	// not-taken arm. A branch arm training never took has ID NoBlock.
	Next, ID, Edge    int32
	Next2, ID2, Edge2 int32

	Dst, A, B, Field     int32
	Dst2, A2, B2, Field2 int32

	// StepsAt is the walker-step total accumulated in this block since the
	// last flush site (block entry or call instruction), inclusive of this
	// instruction's op(s). Op instructions flush it only when raising an
	// anomaly; call instructions always flush before descending;
	// terminators flush it for the pre-transition budget check.
	StepsAt uint16
	Kind    TKind
	ALU     ir.ALU
	ALU2    ir.ALU
	Rel     ir.Rel
	// Bits and Bits2 are the banks' widths in bits.
	Bits, Bits2     uint8
	Signed, Signed2 bool
	// Checked and Checked2 pre-resolve the parameter check: a store to a
	// selected parameter field, or a buffer access or copy whose index or
	// length derives from one (DSODOp.ParamIndexed).
	Checked, Checked2 bool
	// CmdEnd marks a terminator leaving a command-end block; CmdDecision a
	// switch on a command-decision block.
	CmdEnd, CmdDecision bool
}

// TCold is an instruction's cold side, indexed by the same pc: the ops
// whose source statements anomaly reports quote (Op2 for a fused pair's
// second op), and the block, which carries the report's block ref, the
// terminator's source, and the arms a switch resolves its selector
// against.
type TCold struct {
	Op, Op2 *ir.Op
	Blk     *SealedBlock
}

// ThreadedCode is a sealed spec's lowered instruction stream, handed out
// once by SealThreaded. It is immutable: the checker's engines may share
// one stream across any number of concurrent sessions.
type ThreadedCode struct {
	// Instrs is the contiguous instruction stream. Instrs[0] is the shared
	// TDangling instruction; live blocks follow in ES-id order. Cold[pc]
	// is Instrs[pc]'s cold side.
	Instrs []TOp
	Cold   []TCold
	// BlockPC maps an ES id to its block's first instruction; tombstones
	// map to DanglingPC.
	BlockPC []int32
	// EntryPC is the spec entry block's first instruction.
	EntryPC int32
}

// DanglingPC is the shared TDangling instruction's pc.
const DanglingPC = 0

// LoweringReport summarizes one lowering pass: op and instruction counts,
// elided no-effect ops, and per-pattern fused-pair counts. The
// fusion-coverage test and the coverage profile's fused-density column
// read it.
type LoweringReport struct {
	// Ops counts DSOD ops across live blocks; Instrs counts emitted
	// instructions (including per-block terminators and the shared
	// dangling instruction).
	Ops    int `json:"ops"`
	Instrs int `json:"instrs"`
	// Elided counts no-effect ops (device work, IRQ lines, I/O responses,
	// opaque calls) that emit no instruction at all — batched step
	// accounting folds their walker steps into the following instruction
	// or the terminator.
	Elided int `json:"elided"`
	// Pairs counts fused pairs by pattern name ("const+arith",
	// "arith+branch", ...).
	Pairs map[string]int `json:"pairs"`
}

// FusedPairs is the total number of fused pairs across patterns.
func (r *LoweringReport) FusedPairs() int {
	n := 0
	for _, v := range r.Pairs {
		n += v
	}
	return n
}

// FusedOps is the number of DSOD ops covered by fusion. Pair patterns
// absorb two ops each; arith+branch absorbs one op into the terminator.
func (r *LoweringReport) FusedOps() int {
	return 2*r.FusedPairs() - r.Pairs["arith+branch"]
}

// FusedDensity is the fraction of DSOD ops covered by fusion (0 when the
// spec has no ops).
func (r *LoweringReport) FusedDensity() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.FusedOps()) / float64(r.Ops)
}

// Lowering returns the report of the lowering pass Seal ran.
func (s *SealedSpec) Lowering() *LoweringReport { return &s.lowering }

// tgroup is one planned instruction of a block's op run: the TKind, how
// many DSOD ops it consumes (2 for fused pairs), and how many elided
// no-effect ops precede it (their walker steps fold into this
// instruction's batched count).
type tgroup struct {
	kind  TKind
	n     int
	extra int
	opIdx int32
}

// lowerThreaded compiles the sealed spec, with the DSOD of its source
// spec's blocks, into its threaded-code stream, and records the report on
// the sealed spec. Two passes: the first plans each live block's
// instruction groups (the peephole fuser runs here) and assigns block
// pcs; the second emits instructions with successor pcs resolved.
func (s *SealedSpec) lowerThreaded(src []*ESBlock) *ThreadedCode {
	tc := &ThreadedCode{BlockPC: make([]int32, len(s.blocks))}
	r := &s.lowering

	// Pass 1: plan groups per live block, assign pcs. pc 0 is the shared
	// dangling instruction every tombstone id resolves to.
	r.Pairs = make(map[string]int)
	plans := make([][]tgroup, len(s.blocks))
	termFuse := make([]int32, len(s.blocks))
	tailNops := make([]int, len(s.blocks))
	pc := int32(DanglingPC + 1)
	for id := range s.blocks {
		b := &s.blocks[id]
		termFuse[id] = -1
		if !b.Live {
			tc.BlockPC[id] = DanglingPC
			continue
		}
		dsod := src[id].DSOD
		r.Ops += len(dsod)
		var gs []tgroup
		pending := 0 // elided nops since the last emitted instruction
		for i := 0; i < len(dsod); {
			op := dsod[i].Op
			if i+1 < len(dsod) {
				if fk, ok := fusePair(op, dsod[i+1].Op); ok {
					gs = append(gs, tgroup{kind: fk, n: 2, extra: pending, opIdx: int32(i)})
					pending = 0
					r.Pairs[tkindNames[fk]]++
					i += 2
					continue
				}
			}
			if i == len(dsod)-1 && fusesIntoBranch(op, b) {
				termFuse[id] = int32(i)
				r.Pairs[tkindNames[TBranchArith]]++
				i++
				continue
			}
			k := s.opTKind(op)
			if k == TNop {
				// No simulated effect and no possible anomaly: emit nothing.
				// The walker step it would burn folds into the next
				// instruction's (or the terminator's) batched count.
				pending++
				r.Elided++
				i++
				continue
			}
			gs = append(gs, tgroup{kind: k, n: 1, extra: pending, opIdx: int32(i)})
			pending = 0
			i++
		}
		plans[id] = gs
		tailNops[id] = pending
		tc.BlockPC[id] = pc
		pc += int32(len(gs)) + 1 // groups plus the terminator
	}

	// Pass 2: emit.
	instrs := make([]TOp, 0, pc)
	cold := make([]TCold, 0, pc)
	instrs = append(instrs, newTOp(TDangling))
	cold = append(cold, TCold{})
	for id := range s.blocks {
		b := &s.blocks[id]
		if !b.Live {
			continue
		}
		dsod := src[id].DSOD
		stepsSince := 0
		for _, g := range plans[id] {
			d := &dsod[g.opIdx]
			stepsSince += g.extra + g.n
			t := newTOp(g.kind)
			t.StepsAt = uint16(stepsSince)
			t.Next = int32(len(instrs)) + 1
			c := TCold{Blk: b}
			s.fillPrimary(&t, &c, d)
			if g.n == 2 {
				s.fillSecond(&t, &c, &dsod[g.opIdx+1])
			}
			switch g.kind {
			case TCall:
				// Flush site, and a preplanned frame: the callee's entry pc,
				// ES id and temp-bank size are resolved here, so a descent
				// does no handler table lookups.
				stepsSince = 0
				callee := s.HandlerEntry(d.Op.Handler)
				t.Next2 = t.Next
				t.Next, t.ID = tc.BlockPC[callee], int32(callee)
				t.Imm = uint64(s.HandlerTemps(d.Op.Handler))
			case TCallPtr:
				// Flush site: whether it descends is decided at run time.
				stepsSince = 0
			}
			instrs = append(instrs, t)
			cold = append(cold, c)
		}

		term := newTOp(TNop) // kind set below
		term.CmdEnd = b.Kind == ir.KindCmdEnd
		tcold := TCold{Blk: b}
		stepsSince += tailNops[id]
		if fi := termFuse[id]; fi >= 0 {
			stepsSince++
			s.fillPrimary(&term, &tcold, &dsod[fi])
		}
		term.StepsAt = uint16(stepsSince)
		switch {
		case !b.HasNBTD:
			switch {
			case b.Halts:
				term.Kind = THalt
			case b.Returns:
				term.Kind = TReturn
			case b.Next == NoBlock:
				term.Kind = TNoSucc
			default:
				term.Kind = TNext
				term.Next, term.ID, term.Edge = tc.BlockPC[b.Next], b.Next, b.NextEdge
			}
		case b.TermKind == ir.TermBranch:
			term.Kind = TBranch
			if termFuse[id] >= 0 {
				term.Kind = TBranchArith
			}
			t := b.Term
			term.A2, term.B2 = int32(t.A), int32(t.B)
			term.Imm2, term.Bits2 = t.Width.Mask(), uint8(t.Width.Bits())
			term.Signed2, term.Rel = t.Signed, t.Rel
			if b.TakenSeen && b.TakenNext != NoBlock {
				term.Next, term.ID, term.Edge = tc.BlockPC[b.TakenNext], b.TakenNext, b.TakenEdge
			}
			if b.NotTakenSeen && b.NotTakenNext != NoBlock {
				term.Next2, term.ID2, term.Edge2 = tc.BlockPC[b.NotTakenNext], b.NotTakenNext, b.NotTakenEdge
			}
		case b.TermKind == ir.TermSwitch:
			term.Kind = TSwitch
			term.A2 = int32(b.Term.A)
			term.CmdDecision = b.Kind == ir.KindCmdDecision
		default:
			// The reference engine cannot follow an NBTD of any other
			// kind either; a spec that produced one would already
			// misbehave there. Fail loudly at lowering instead of at
			// enforcement.
			panic(fmt.Sprintf("core: threaded lowering: block %d has unsupported NBTD terminator %v", id, b.TermKind))
		}
		instrs = append(instrs, term)
		cold = append(cold, tcold)
	}

	tc.Instrs, tc.Cold = instrs, cold
	tc.EntryPC = tc.BlockPC[s.Entry]
	r.Instrs = len(instrs)
	return tc
}

// checkStream verifies the stream half of CheckInvariants.
func (s *SealedSpec) checkStream(tc *ThreadedCode) error {
	n := int32(len(tc.Instrs))
	if len(tc.Cold) != len(tc.Instrs) {
		return fmt.Errorf("stream: %d instructions vs %d cold entries", n, len(tc.Cold))
	}
	if n == 0 || tc.Instrs[DanglingPC].Kind != TDangling {
		return fmt.Errorf("stream: pc %d is not the dangling instruction", DanglingPC)
	}
	if len(tc.BlockPC) != len(s.blocks) {
		return fmt.Errorf("stream: block index covers %d blocks, spec has %d", len(tc.BlockPC), len(s.blocks))
	}
	id := func(v int32) bool { return v == NoBlock || (v >= 0 && int(v) < len(s.blocks)) }
	edge := func(e int32) bool { return e == NoEdge || (e >= 0 && int(e) < len(s.edgeFrom)) }
	for pc := range tc.Instrs {
		t := &tc.Instrs[pc]
		if t.Next < 0 || t.Next >= n || t.Next2 < 0 || t.Next2 >= n {
			return fmt.Errorf("pc %d (%v): successor pc %d/%d outside stream of %d", pc, t.Kind, t.Next, t.Next2, n)
		}
		if !id(t.ID) || !id(t.ID2) {
			return fmt.Errorf("pc %d (%v): ES id %d/%d out of range", pc, t.Kind, t.ID, t.ID2)
		}
		if !edge(t.Edge) || !edge(t.Edge2) {
			return fmt.Errorf("pc %d (%v): edge slot %d/%d out of range", pc, t.Kind, t.Edge, t.Edge2)
		}
	}
	for b := range s.blocks {
		pc := tc.BlockPC[b]
		if !s.blocks[b].Live {
			if pc != DanglingPC {
				return fmt.Errorf("tombstone %d: block pc %d, want the dangling pc", b, pc)
			}
			continue
		}
		if pc <= DanglingPC || pc >= n || tc.Cold[pc].Blk != &s.blocks[b] || tc.Cold[pc-1].Blk == &s.blocks[b] {
			return fmt.Errorf("block %d: block pc %d is not its first instruction", b, pc)
		}
	}
	if tc.EntryPC != tc.BlockPC[s.Entry] {
		return fmt.Errorf("stream: entry pc %d, entry block starts at %d", tc.EntryPC, tc.BlockPC[s.Entry])
	}
	return nil
}

// fusePair reports the fused kind for an adjacent op pair, if the peephole
// patterns cover it. Calls are never part of a pair, so resume pcs always
// land on instruction boundaries, and jump targets always land on block
// starts — fusion never needs a mid-pair entry point.
func fusePair(a, b *ir.Op) (TKind, bool) {
	switch a.Code {
	case ir.OpLoad:
		switch b.Code {
		case ir.OpArith:
			return TLoadArith, true
		case ir.OpConst:
			return TLoadConst, true
		}
	case ir.OpConst:
		switch b.Code {
		case ir.OpArith:
			return TConstArith, true
		case ir.OpStore:
			return TConstStore, true
		case ir.OpBufStore:
			return TConstBufStore, true
		case ir.OpConst:
			return TConstConst, true
		}
	case ir.OpArith:
		if b.Code == ir.OpStore {
			return TArithStore, true
		}
	case ir.OpBufLoad:
		if b.Code == ir.OpStore {
			return TBufLoadStore, true
		}
	case ir.OpBufStore:
		if b.Code == ir.OpConst {
			return TBufStoreConst, true
		}
	case ir.OpStore:
		switch b.Code {
		case ir.OpConst:
			return TStoreConst, true
		case ir.OpLoad:
			return TStoreLoad, true
		}
	}
	return TNop, false
}

// fusesIntoBranch reports whether a block's final unconsumed op is a
// compare-style arith whose result feeds the block's conditional branch —
// the TBranchArith pattern.
func fusesIntoBranch(op *ir.Op, b *SealedBlock) bool {
	return op.Code == ir.OpArith && b.HasNBTD && b.TermKind == ir.TermBranch &&
		b.Term != nil && (b.Term.A == op.Dst || b.Term.B == op.Dst)
}

// opTKind maps a single (unfused) op to its instruction kind. Opaque
// static calls — whose callee the spec never observed — lower to TNop, as
// the reference engine skips them while still counting the step.
func (s *SealedSpec) opTKind(op *ir.Op) TKind {
	switch op.Code {
	case ir.OpConst:
		return TConst
	case ir.OpLoad:
		return TLoad
	case ir.OpLoadFunc:
		return TLoadFunc
	case ir.OpArith:
		return TArith
	case ir.OpStore:
		return TStore
	case ir.OpStoreFunc:
		return TStoreFunc
	case ir.OpBufLoad:
		return TBufLoad
	case ir.OpBufStore:
		return TBufStore
	case ir.OpIOToBuf:
		return TIOToBuf
	case ir.OpDMAToBuf:
		return TDMAToBuf
	case ir.OpDMAFromBuf:
		return TDMAFromBuf
	case ir.OpDMARead:
		return TDMARead
	case ir.OpDMAWrite:
		return TDMAWrite
	case ir.OpIOIn:
		return TIOIn
	case ir.OpIOAddr:
		return TIOAddr
	case ir.OpIOLen:
		return TIOLen
	case ir.OpIOIsWrite:
		return TIOIsWrite
	case ir.OpEnvRead:
		return TEnvRead
	case ir.OpCall:
		if s.HandlerEntry(op.Handler) == NoBlock {
			return TNop // opaque: library or unobserved callee
		}
		return TCall
	case ir.OpCallPtr:
		return TCallPtr
	default:
		// Ops the reference engine's switch falls through on (OpIOOut,
		// OpIRQRaise, OpIRQLower, OpWork) burn a step with no simulated
		// effect.
		return TNop
	}
}

// newTOp returns an instruction of kind k with no successor ids or edge
// slots.
func newTOp(k TKind) TOp {
	return TOp{Kind: k, ID: NoBlock, ID2: NoBlock, Edge: NoEdge, Edge2: NoEdge}
}

// fillPrimary flattens an op into the instruction's primary operand bank.
func (s *SealedSpec) fillPrimary(t *TOp, c *TCold, d *DSODOp) {
	c.Op = d.Op
	t.Dst, t.A, t.B, t.Field, t.Imm, t.Checked = s.operands(d)
	t.ALU, t.Bits, t.Signed = d.Op.ALU, uint8(d.Op.Width.Bits()), d.Op.Signed
}

// fillSecond flattens a fused pair's second op into the secondary bank.
func (s *SealedSpec) fillSecond(t *TOp, c *TCold, d *DSODOp) {
	c.Op2 = d.Op
	t.Dst2, t.A2, t.B2, t.Field2, t.Imm2, t.Checked2 = s.operands(d)
	t.ALU2, t.Bits2, t.Signed2 = d.Op.ALU, uint8(d.Op.Width.Bits()), d.Op.Signed
}

// operands maps an op's temps, field, immediate and parameter check onto
// their operand-bank roles (see TOp).
func (s *SealedSpec) operands(d *DSODOp) (dst, a, b, field int32, imm uint64, checked bool) {
	op := d.Op
	dst, a, b, field = int32(op.Dst), int32(op.A), int32(op.B), int32(op.Field)
	imm, checked = op.Width.Mask(), d.ParamIndexed
	switch op.Code {
	case ir.OpConst, ir.OpEnvRead:
		imm = op.Imm
	case ir.OpStore:
		b, checked = int32(op.Src), s.ParamField(op.Field)
	case ir.OpStoreFunc, ir.OpDMAWrite:
		b = int32(op.Src)
	case ir.OpBufLoad:
		a = int32(op.Idx)
	case ir.OpBufStore:
		a, b = int32(op.Idx), int32(op.Src)
	}
	return dst, a, b, field, imm, checked
}
