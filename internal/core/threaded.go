package core

import (
	"fmt"

	"sedspec/internal/ir"
)

// Threaded-code lowering: the third and lowest specification form.
//
// Seal flattens the mutable Spec into the dense SealedSpec; lowerThreaded
// flattens the SealedSpec one level further, into a single contiguous
// instruction stream the checker executes by direct dispatch (one indirect
// call per instruction) instead of re-decoding op codes through a switch.
// Three properties drive the layout:
//
//   - operands are pre-flattened: every hot field the handler needs (temp
//     indices, immediates, widths, resolved successor pcs, precomputed
//     call-frame sizes) lives in the instruction record itself, int32-sized
//     where possible, so a handler never chases the program or the sealed
//     block tables on the fast path;
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
// A ThreadedCode is built inside Seal and stored on the SealedSpec, so it
// shares the sealed form's immutability contract: compiled streams are part
// of the spec-version object an RCU hot-swap publishes atomically, and
// sessions adopting a new version pick up its stream at a round boundary.

// TKind enumerates threaded-code instruction kinds. The checker maps each
// kind to a handler function at engine construction.
type TKind uint8

const (
	// TNop occupies a step (opaque calls, unknown ops) with no effect.
	TNop TKind = iota
	// Plain op instructions, one per SealedOp.
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

// TOp is one threaded-code instruction: the operands of one SealedOp (or a
// fused pair, or a block terminator) flattened into immediate fields. The
// primary operand bank (Dst..Signed) carries the first — usually only — op;
// the secondary bank carries a fused pair's second op, and doubles as the
// branch-condition bank for TBranch/TBranchArith. Cold pointers (Op, Op2,
// Blk, Term) are touched only on anomaly and lookup-fallback paths.
type TOp struct {
	Kind TKind
	// StepsAt is the walker-step total accumulated in this block since the
	// last flush site (block entry or call instruction), inclusive of this
	// instruction's op(s). Op instructions flush it only when raising an
	// anomaly; call instructions always flush before descending;
	// terminators flush it for the pre-transition budget check.
	StepsAt uint16

	// Next is the pc of the following instruction in the stream (the
	// fall-through successor inside the block).
	Next int32

	// Primary operand bank.
	Dst, A, B, Src, Idx int32
	Field               int32
	Imm                 uint64
	ALU                 ir.ALU
	Width               ir.Width
	Signed              bool
	// ParamIndexed / IsParam are the pre-resolved check predicates:
	// SealedOp.ParamIndexed for buffer ops, ParamField(Field) for stores.
	ParamIndexed bool
	IsParam      bool

	// Secondary operand bank: a fused pair's second op, or the branch
	// condition (A2 Rel B2 at Width2/Signed2) for TBranch/TBranchArith.
	// TSwitch keeps its selector temp in A2.
	Dst2, A2, B2, Src2, Idx2 int32
	Field2                   int32
	Imm2                     uint64
	ALU2                     ir.ALU
	Width2                   ir.Width
	Signed2                  bool
	Rel                      ir.Rel
	ParamIndexed2            bool
	IsParam2                 bool

	// Preplanned call frame: the callee's entry pc, entry ES id, and
	// temp-bank size, resolved at lowering so a descent does no handler
	// table lookups.
	CalleePC, CalleeID, CalleeTemps int32

	// Terminator plan: resolved successor pcs/ids and trained-edge slots.
	// TBranch uses Tgt* for the taken arm and Tgt2* for the not-taken arm.
	TgtPC, Tgt2PC int32
	TgtID, Tgt2ID int32
	Edge, Edge2   int32
	TakenOK       bool
	NotTakenOK    bool
	CmdEnd        bool
	CmdDecision   bool

	// Cold pointers for anomaly reports and switch fallback resolution.
	Op   *ir.Op
	Op2  *ir.Op
	Blk  *SealedBlock
	Term *ir.Term
}

// ThreadedCode is a sealed spec's compiled instruction stream. Like the
// SealedSpec that owns it, it is immutable after Seal: the checker's
// engines may share one stream across any number of concurrent sessions.
type ThreadedCode struct {
	// Instrs is the contiguous instruction stream. Instrs[0] is the shared
	// TDangling instruction; live blocks follow in ES-id order.
	Instrs []TOp
	// BlockPC maps an ES id to its block's first instruction; tombstones
	// map to DanglingPC.
	BlockPC []int32
	// EntryPC is the spec entry block's first instruction.
	EntryPC int32
	// DanglingPC is the shared TDangling instruction (always 0).
	DanglingPC int32

	Report LoweringReport
}

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

// PatternCounts returns a copy of the per-pattern pair counts keyed by
// pattern name, for reports.
func (r *LoweringReport) PatternCounts() map[string]int {
	m := make(map[string]int, len(r.Pairs))
	for k, v := range r.Pairs {
		m[k] = v
	}
	return m
}

// Threaded returns the spec's compiled threaded-code stream. Specs sealed
// by Seal carry one already; for externally constructed sealed specs
// (tests, deserialization) the stream is lowered on demand.
func (s *SealedSpec) Threaded() *ThreadedCode {
	if s.threaded != nil {
		return s.threaded
	}
	return s.lowerThreaded()
}

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

// lowerThreaded compiles the sealed spec into its threaded-code stream.
// Two passes: the first plans each live block's instruction groups (the
// peephole fuser runs here) and assigns block pcs; the second emits
// instructions with successor pcs resolved.
func (s *SealedSpec) lowerThreaded() *ThreadedCode {
	tc := &ThreadedCode{
		BlockPC:    make([]int32, len(s.blocks)),
		DanglingPC: 0,
	}
	r := &tc.Report

	// Pass 1: plan groups per live block, assign pcs. pc 0 is the shared
	// dangling instruction every tombstone id resolves to.
	r.Pairs = make(map[string]int)
	plans := make([][]tgroup, len(s.blocks))
	termFuse := make([]int32, len(s.blocks))
	tailNops := make([]int, len(s.blocks))
	pc := int32(1)
	for id := range s.blocks {
		b := &s.blocks[id]
		termFuse[id] = -1
		if !b.Live {
			tc.BlockPC[id] = tc.DanglingPC
			continue
		}
		dsod := s.dsod[b.DSODStart:b.DSODEnd]
		r.Ops += len(dsod)
		var gs []tgroup
		pending := 0 // elided nops since the last emitted instruction
		for i := 0; i < len(dsod); {
			op := &dsod[i].Op
			if i+1 < len(dsod) {
				if fk, ok := fusePair(op, &dsod[i+1].Op); ok {
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
	instrs = append(instrs, TOp{Kind: TDangling})
	for id := range s.blocks {
		b := &s.blocks[id]
		if !b.Live {
			continue
		}
		dsod := s.dsod[b.DSODStart:b.DSODEnd]
		stepsSince := 0
		for _, g := range plans[id] {
			d := &dsod[g.opIdx]
			stepsSince += g.extra + g.n
			t := TOp{
				Kind:    g.kind,
				StepsAt: uint16(stepsSince),
				Next:    int32(len(instrs)) + 1,
				Blk:     b,
			}
			s.fillPrimary(&t, d)
			if g.n == 2 {
				s.fillSecond(&t, &dsod[g.opIdx+1])
			}
			switch g.kind {
			case TCall, TCallPtr:
				// Flush site: the descent (or, for TCallPtr, the dynamic
				// decision whether to descend) commits the running count.
				stepsSince = 0
			}
			if g.kind == TCall {
				callee := s.HandlerEntry(d.Op.Handler)
				t.CalleeID = int32(callee)
				t.CalleeTemps = int32(s.HandlerTemps(d.Op.Handler))
				t.CalleePC = tc.BlockPC[callee]
			}
			instrs = append(instrs, t)
		}

		term := TOp{
			Blk:    b,
			Term:   b.Term,
			CmdEnd: b.Kind == ir.KindCmdEnd,
			Edge:   NoEdge,
			Edge2:  NoEdge,
			TgtID:  NoBlock,
			Tgt2ID: NoBlock,
		}
		stepsSince += tailNops[id]
		if fi := termFuse[id]; fi >= 0 {
			stepsSince++
			s.fillPrimary(&term, &dsod[fi])
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
				term.TgtID = b.Next
				term.TgtPC = tc.BlockPC[b.Next]
				term.Edge = b.NextEdge
			}
		case b.TermKind == ir.TermBranch:
			term.Kind = TBranch
			if termFuse[id] >= 0 {
				term.Kind = TBranchArith
			}
			t := b.Term
			term.A2, term.B2 = int32(t.A), int32(t.B)
			term.Width2, term.Signed2, term.Rel = t.Width, t.Signed, t.Rel
			term.TakenOK = b.TakenSeen && b.TakenNext != NoBlock
			if term.TakenOK {
				term.TgtID = b.TakenNext
				term.TgtPC = tc.BlockPC[b.TakenNext]
				term.Edge = b.TakenEdge
			}
			term.NotTakenOK = b.NotTakenSeen && b.NotTakenNext != NoBlock
			if term.NotTakenOK {
				term.Tgt2ID = b.NotTakenNext
				term.Tgt2PC = tc.BlockPC[b.NotTakenNext]
				term.Edge2 = b.NotTakenEdge
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
	}

	tc.Instrs = instrs
	tc.EntryPC = tc.BlockPC[s.Entry]
	r.Instrs = len(instrs)
	return tc
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

// fillPrimary flattens an op into the instruction's primary operand bank.
func (s *SealedSpec) fillPrimary(t *TOp, d *SealedOp) {
	op := &d.Op
	t.Op = op
	t.Dst, t.A, t.B = int32(op.Dst), int32(op.A), int32(op.B)
	t.Src, t.Idx = int32(op.Src), int32(op.Idx)
	t.Field = int32(op.Field)
	t.Imm = op.Imm
	t.ALU, t.Width, t.Signed = op.ALU, op.Width, op.Signed
	t.ParamIndexed = d.ParamIndexed
	if op.Code == ir.OpStore {
		t.IsParam = s.ParamField(op.Field)
	}
}

// fillSecond flattens a fused pair's second op into the secondary bank.
func (s *SealedSpec) fillSecond(t *TOp, d *SealedOp) {
	op := &d.Op
	t.Op2 = op
	t.Dst2, t.A2, t.B2 = int32(op.Dst), int32(op.A), int32(op.B)
	t.Src2, t.Idx2 = int32(op.Src), int32(op.Idx)
	t.Field2 = int32(op.Field)
	t.Imm2 = op.Imm
	t.ALU2, t.Width2, t.Signed2 = op.ALU, op.Width, op.Signed
	t.ParamIndexed2 = d.ParamIndexed
	if op.Code == ir.OpStore {
		t.IsParam2 = s.ParamField(op.Field)
	}
}
