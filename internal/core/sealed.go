package core

import (
	"fmt"
	"slices"
	"sort"

	"sedspec/internal/ir"
)

// This file implements spec sealing: lowering the learned, map-heavy ES-CFG
// into dense runtime structures the ES-Checker can simulate without pointer
// chasing or hashing on the per-I/O hot path. The mutable Spec remains the
// artifact for training, reduction, and JSON serialization; a SealedSpec is
// produced once at deployment time (checker.New seals internally) and is
// immutable afterwards.
//
// Lowerings applied by Seal:
//
//   - the block table becomes a flat []SealedBlock indexed by ES id, with
//     the owning handler's NumTemps precomputed into each entry (the
//     checker's frame push no longer chases Program().Handlers[...]);
//   - NBTD.CaseNext maps become sorted (selector, next) runs in a shared
//     case arena resolved by binary search;
//   - byRef becomes dense per-handler id arrays (O(1) lookup for call
//     entries and static switch fallbacks);
//   - IndirectTargets becomes per-field sorted target slices;
//   - the command access table becomes per-command block bitsets behind a
//     sorted command index, each with the global set ORed in, so one
//     lookup per command decision answers every access check until the
//     command ends;
//   - the parameter selection becomes a field bitset;
//   - the blocks' DSOD ops and terminators become the threaded-code
//     stream (threaded.go), the one executable form the checker runs.

// NoEdge marks a transition without a trained-edge coverage slot: the
// transition either was not observed during training (taking it raises an
// anomaly, not a counter hit) or has no per-edge slot by design (the
// static switch fallback counts a direct block hit instead).
const NoEdge = -1

// Bitset is a fixed-capacity bit vector.
type Bitset []uint64

func newBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

func (b Bitset) set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Has reports whether bit i is set; an i outside the capacity, negative
// included, reads as unset.
func (b Bitset) Has(i int) bool {
	w := uint(i) >> 6
	return w < uint(len(b)) && b[w]&(1<<(uint(i)&63)) != 0
}

// SealedCase is one lowered switch arm: selector value K transitions to ES
// block Next.
type SealedCase struct {
	K    uint64
	Next int32
}

// SealedBlock is the dense runtime form of an ESBlock. Successor ids are
// int32 (NoBlock for absent) to keep the entry compact; a tombstone entry
// (Live == false) stands in for blocks elided by reduction so ids remain
// stable.
type SealedBlock struct {
	Live    bool
	Kind    ir.BlockKind
	Returns bool
	Halts   bool

	// NBTD lowering. HasNBTD false means the block transitions
	// unconditionally through Next.
	HasNBTD      bool
	TermKind     ir.TermKind
	TakenSeen    bool
	NotTakenSeen bool

	// NumTemps is the owning handler's temp count, precomputed so the
	// checker's frame push is a single field read.
	NumTemps int32

	TakenNext    int32
	NotTakenNext int32
	Next         int32

	// Cases addresses the block's sorted switch arms inside the case
	// arena.
	CaseStart int32
	CaseEnd   int32

	// Trained-edge coverage slots (NoEdge when the transition has none).
	// NextEdge covers the unconditional successor, TakenEdge/NotTakenEdge
	// the branch arms, and switch arms use EdgeBase + their offset inside
	// the sorted case run.
	NextEdge     int32
	TakenEdge    int32
	NotTakenEdge int32
	EdgeBase     int32

	// Ref identifies the original block for anomaly reports.
	Ref ir.BlockRef
	// Term points at the original terminator (condition operands,
	// relation, source statement); nil for unconditional blocks.
	Term *ir.Term
}

// SealedSpec is the dense, immutable runtime form of a Spec.
//
// Immutability is a concurrency contract, not just a convention: one
// SealedSpec is shared read-only by every concurrent enforcement session
// (checker.Shared hands the same pointer to N goroutines), so nothing may
// write to a sealed spec after Seal returns. Seal guarantees the sealed
// data is self-consistent via CheckInvariants — every case run, successor
// id, id-table entry and stream pc it asserts is exactly what the
// lock-free check path dereferences without bounds re-validation. The two
// pieces of shared-by-reference state, the device program and the ir.Term
// pointers inside it, are covered by the same contract: a program is
// built once and never mutated after attachment.
type SealedSpec struct {
	Device string
	Entry  int

	prog   *ir.Program
	blocks []SealedBlock

	cases []SealedCase

	// blockIDs[h][b] is the ES id for original block (h, b), or NoBlock.
	blockIDs [][]int32

	// handlerTemps[h] is handler h's temp-bank size, so opening a frame
	// for a callee needs no block-table load.
	handlerTemps []int32

	// indirect[f] is the sorted legitimate-target set of function-pointer
	// field f (nil when none were learned).
	indirect [][]uint64

	// Access table lowering: cmdVecs[i] is command cmds[i]'s block set
	// with the global set ORed in; global alone serves unlearned commands.
	global  Bitset
	cmds    []uint64
	cmdVecs []Bitset

	// params marks the selected device-state parameter fields.
	params Bitset

	// Trained-edge table: edgeFrom/edgeTo[e] are the endpoints of edge
	// slot e. Runtime coverage maps (internal/obs/coverage) index their
	// per-edge counters by these slots.
	edgeFrom []int32
	edgeTo   []int32

	// visits[id] is block id's training visit count, the learn-time
	// coverage baseline recorded at Seal.
	visits []uint64

	// lowering is the report of the threaded-code lowering; the stream
	// itself belongs to whoever sealed the spec through SealThreaded.
	lowering LoweringReport

	// defAssigned records that the program passed the definitely-assigned
	// temp analysis (ir.DefiniteTemps) and that every frame entry point —
	// the spec entry and all call entries — is its handler's block 0, the
	// analysis' entry assumption. When set, a checker's frame push may
	// skip zeroing the temp and flag banks: no path can read a previous
	// round's residue.
	defAssigned bool
}

// Seal lowers the specification into its dense runtime form and drops
// the instruction stream: SealThreaded without its second result.
func (s *Spec) Seal() *SealedSpec {
	ss, _ := s.SealThreaded()
	return ss
}

// SealThreaded lowers the specification into its dense runtime form and
// its threaded-code stream. The sealed spec shares the device program
// (and the ir.Op and ir.Term pointers inside it) with the spec but copies
// everything else; later mutation of the Spec does not affect either
// result. The sealed spec keeps the lowering report, not the stream: the
// caller binds it once.
func (s *Spec) SealThreaded() (*SealedSpec, *ThreadedCode) {
	ss := &SealedSpec{
		Device: s.Device,
		Entry:  s.Entry,
		prog:   s.prog,
		blocks: make([]SealedBlock, len(s.Blocks)),
		params: newBitset(len(s.prog.Fields)),
	}

	nCases := 0
	for _, b := range s.Blocks {
		if b != nil && b.NBTD != nil {
			nCases += len(b.NBTD.CaseNext)
		}
	}
	ss.cases = make([]SealedCase, 0, nCases)
	ss.visits = make([]uint64, len(s.Blocks))

	// addEdge allocates a trained-edge coverage slot from -> to.
	addEdge := func(from int, to int32) int32 {
		e := int32(len(ss.edgeFrom))
		ss.edgeFrom = append(ss.edgeFrom, int32(from))
		ss.edgeTo = append(ss.edgeTo, to)
		return e
	}

	for id, b := range s.Blocks {
		sb := &ss.blocks[id]
		sb.NextEdge = NoEdge
		sb.TakenEdge = NoEdge
		sb.NotTakenEdge = NoEdge
		sb.EdgeBase = NoEdge
		if b == nil {
			// Tombstone for a reduced-away block.
			sb.Next = NoBlock
			sb.TakenNext = NoBlock
			sb.NotTakenNext = NoBlock
			continue
		}
		sb.Live = true
		ss.visits[id] = uint64(b.Visits)
		sb.Kind = b.Kind
		sb.Returns = b.Returns
		sb.Halts = b.Halts
		sb.Ref = b.Ref
		sb.Next = int32(b.Next)
		sb.NumTemps = int32(s.prog.Handlers[b.Ref.Handler].NumTemps)

		sb.TakenNext = NoBlock
		sb.NotTakenNext = NoBlock
		if n := b.NBTD; n != nil {
			sb.HasNBTD = true
			sb.TermKind = n.Kind
			sb.Term = n.Term
			sb.TakenSeen = n.TakenSeen
			sb.NotTakenSeen = n.NotTakenSeen
			sb.TakenNext = int32(n.TakenNext)
			sb.NotTakenNext = int32(n.NotTakenNext)
			if n.TakenSeen && n.TakenNext != NoBlock {
				sb.TakenEdge = addEdge(id, sb.TakenNext)
			}
			if n.NotTakenSeen && n.NotTakenNext != NoBlock {
				sb.NotTakenEdge = addEdge(id, sb.NotTakenNext)
			}
			if len(n.CaseNext) > 0 {
				sb.CaseStart = int32(len(ss.cases))
				for k, next := range n.CaseNext {
					ss.cases = append(ss.cases, SealedCase{K: k, Next: int32(next)})
				}
				sb.CaseEnd = int32(len(ss.cases))
				run := ss.cases[sb.CaseStart:sb.CaseEnd]
				sort.Slice(run, func(i, j int) bool { return run[i].K < run[j].K })
				// Edge slots for the sorted run are contiguous: arm i's slot
				// is EdgeBase + i, so selector resolution yields the edge for
				// free (see CaseNextEdge).
				sb.EdgeBase = int32(len(ss.edgeFrom))
				for _, c := range run {
					addEdge(id, c.Next)
				}
			}
		} else if !b.Returns && !b.Halts && b.Next != NoBlock {
			sb.NextEdge = addEdge(id, sb.Next)
		}
	}

	ss.handlerTemps = make([]int32, len(s.prog.Handlers))
	for h := range s.prog.Handlers {
		ss.handlerTemps[h] = int32(s.prog.Handlers[h].NumTemps)
	}

	// byRef -> dense per-handler id arrays.
	ss.blockIDs = make([][]int32, len(s.prog.Handlers))
	for h := range s.prog.Handlers {
		ids := make([]int32, len(s.prog.Handlers[h].Blocks))
		for i := range ids {
			ids[i] = NoBlock
		}
		ss.blockIDs[h] = ids
	}
	for ref, id := range s.byRef {
		ss.blockIDs[ref.Handler][ref.Block] = int32(id)
	}

	// Indirect-jump targets -> per-field sorted slices.
	ss.indirect = make([][]uint64, len(s.prog.Fields))
	for field, set := range s.IndirectTargets {
		if field < 0 || field >= len(ss.indirect) {
			continue
		}
		targets := make([]uint64, 0, len(set))
		for t := range set {
			targets = append(targets, t)
		}
		sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
		ss.indirect[field] = targets
	}

	// Command access table -> per-command bitsets, global set ORed in.
	ss.global = sealAccessVec(s.CmdTable.Global, len(s.Blocks))
	ss.cmds = make([]uint64, 0, len(s.CmdTable.Access))
	for cmd := range s.CmdTable.Access {
		ss.cmds = append(ss.cmds, cmd)
	}
	slices.Sort(ss.cmds)
	ss.cmdVecs = make([]Bitset, len(ss.cmds))
	for i, cmd := range ss.cmds {
		v := sealAccessVec(s.CmdTable.Access[cmd], len(s.Blocks))
		for w := range v {
			v[w] |= ss.global[w]
		}
		ss.cmdVecs[i] = v
	}

	// Parameter selection -> field bitset.
	for _, p := range s.Params.Params {
		if p.Field >= 0 && p.Field < len(s.prog.Fields) {
			ss.params.set(p.Field)
		}
	}
	// A violation below is a sealing bug, not a property of the learned
	// spec: the mutable Spec validated its own structure when built. The
	// table invariants are exactly what the lowering pass dereferences.
	if err := ss.checkTables(); err != nil {
		panic("core: Seal produced an inconsistent sealed spec: " + err.Error())
	}
	if ss.blocks[ss.Entry].Ref.Block == 0 {
		ss.defAssigned = s.prog.DefiniteTemps()
	}
	tc := ss.lowerThreaded(s.Blocks)
	if err := ss.checkStream(tc); err != nil {
		panic("core: Seal produced an inconsistent threaded stream: " + err.Error())
	}
	return ss, tc
}

// CheckInvariants verifies the structural invariants the concurrent check
// path relies on when it dereferences sealed data and its threaded-code
// stream tc without revalidation:
//
//   - every case run lies inside the case arena and is strictly sorted by
//     selector (binary search correctness);
//   - every successor id (Next, TakenNext, NotTakenNext, case targets)
//     is NoBlock or a valid ES id;
//   - Entry is a live block id;
//   - the handler/block id table maps only to NoBlock or valid ES ids and
//     covers every handler;
//   - per-field indirect target slices are sorted (binary search
//     correctness);
//   - the trained-edge table is well-formed: edgeFrom/edgeTo are the same
//     length, endpoints are valid ES ids, every per-block edge slot
//     (NextEdge, TakenEdge, NotTakenEdge, case-run slots) is NoEdge or in
//     range, and each slot's recorded source is its block;
//   - every pc an instruction names (Next, Next2) lies inside the stream,
//     every ES id (ID, ID2) is NoBlock or valid, every edge slot (Edge,
//     Edge2) is NoEdge or in range, and the cold table matches the
//     stream's length;
//   - every live block's BlockPC entry points at that block's first
//     instruction, and every tombstone's at the dangling instruction.
//
// Seal checks these and panics on violation, so a SealedSpec and stream
// in circulation always satisfy them; the method is exported for tests
// and for auditing specs deserialized or constructed by other means.
func (s *SealedSpec) CheckInvariants(tc *ThreadedCode) error {
	if err := s.checkTables(); err != nil {
		return err
	}
	return s.checkStream(tc)
}

// checkTables verifies the sealed tables' half of CheckInvariants.
func (s *SealedSpec) checkTables() error {
	checkSucc := func(id int32, what string, block int) error {
		if id != NoBlock && (id < 0 || int(id) >= len(s.blocks)) {
			return fmt.Errorf("block %d: %s id %d out of range [0,%d)", block, what, id, len(s.blocks))
		}
		return nil
	}
	if s.Entry < 0 || s.Entry >= len(s.blocks) || !s.blocks[s.Entry].Live {
		return fmt.Errorf("entry id %d is not a live block", s.Entry)
	}
	for id := range s.blocks {
		b := &s.blocks[id]
		if !b.Live {
			continue
		}
		if b.CaseStart < 0 || b.CaseStart > b.CaseEnd || int(b.CaseEnd) > len(s.cases) {
			return fmt.Errorf("block %d: case range [%d,%d) outside case arena of %d", id, b.CaseStart, b.CaseEnd, len(s.cases))
		}
		for i := int(b.CaseStart) + 1; i < int(b.CaseEnd); i++ {
			if s.cases[i-1].K >= s.cases[i].K {
				return fmt.Errorf("block %d: case run not strictly sorted at %d (%d >= %d)", id, i, s.cases[i-1].K, s.cases[i].K)
			}
		}
		for i := int(b.CaseStart); i < int(b.CaseEnd); i++ {
			if err := checkSucc(s.cases[i].Next, "case target", id); err != nil {
				return err
			}
		}
		if err := checkSucc(b.Next, "Next", id); err != nil {
			return err
		}
		if err := checkSucc(b.TakenNext, "TakenNext", id); err != nil {
			return err
		}
		if err := checkSucc(b.NotTakenNext, "NotTakenNext", id); err != nil {
			return err
		}
		if b.Ref.Handler < 0 || b.Ref.Handler >= len(s.handlerTemps) {
			return fmt.Errorf("block %d: handler ref %d out of range", id, b.Ref.Handler)
		}
		checkEdge := func(e int32, what string) error {
			if e == NoEdge {
				return nil
			}
			if e < 0 || int(e) >= len(s.edgeFrom) {
				return fmt.Errorf("block %d: %s edge slot %d out of range [0,%d)", id, what, e, len(s.edgeFrom))
			}
			if int(s.edgeFrom[e]) != id {
				return fmt.Errorf("block %d: %s edge slot %d recorded for block %d", id, what, e, s.edgeFrom[e])
			}
			return nil
		}
		if err := checkEdge(b.NextEdge, "Next"); err != nil {
			return err
		}
		if err := checkEdge(b.TakenEdge, "Taken"); err != nil {
			return err
		}
		if err := checkEdge(b.NotTakenEdge, "NotTaken"); err != nil {
			return err
		}
		if b.EdgeBase != NoEdge {
			n := int(b.CaseEnd - b.CaseStart)
			if b.EdgeBase < 0 || int(b.EdgeBase)+n > len(s.edgeFrom) {
				return fmt.Errorf("block %d: case edge run [%d,%d) outside edge table of %d", id, b.EdgeBase, int(b.EdgeBase)+n, len(s.edgeFrom))
			}
			for i := 0; i < n; i++ {
				if int(s.edgeFrom[int(b.EdgeBase)+i]) != id {
					return fmt.Errorf("block %d: case edge slot %d recorded for block %d", id, int(b.EdgeBase)+i, s.edgeFrom[int(b.EdgeBase)+i])
				}
				if s.edgeTo[int(b.EdgeBase)+i] != s.cases[int(b.CaseStart)+i].Next {
					return fmt.Errorf("block %d: case edge slot %d target mismatch", id, int(b.EdgeBase)+i)
				}
			}
		}
	}
	if len(s.edgeFrom) != len(s.edgeTo) {
		return fmt.Errorf("edge table: %d sources vs %d targets", len(s.edgeFrom), len(s.edgeTo))
	}
	for e := range s.edgeFrom {
		if from := s.edgeFrom[e]; from < 0 || int(from) >= len(s.blocks) {
			return fmt.Errorf("edge %d: source %d out of range", e, from)
		}
		if to := s.edgeTo[e]; to < 0 || int(to) >= len(s.blocks) {
			return fmt.Errorf("edge %d: target %d out of range", e, to)
		}
	}
	if len(s.visits) != len(s.blocks) {
		return fmt.Errorf("visit baseline covers %d blocks, spec has %d", len(s.visits), len(s.blocks))
	}
	if len(s.blockIDs) != len(s.prog.Handlers) {
		return fmt.Errorf("id table covers %d handlers, program has %d", len(s.blockIDs), len(s.prog.Handlers))
	}
	for h, ids := range s.blockIDs {
		for blk, id := range ids {
			if id != NoBlock && (id < 0 || int(id) >= len(s.blocks)) {
				return fmt.Errorf("id table (%d,%d): ES id %d out of range", h, blk, id)
			}
		}
	}
	for field, targets := range s.indirect {
		for i := 1; i < len(targets); i++ {
			if targets[i-1] >= targets[i] {
				return fmt.Errorf("field %d: indirect targets not strictly sorted at %d", field, i)
			}
		}
	}
	return nil
}

func sealAccessVec(set map[int]bool, n int) Bitset {
	v := newBitset(n)
	for b, ok := range set {
		if ok && b >= 0 && b < n {
			v.set(b)
		}
	}
	return v
}

// Program returns the device program the sealed spec runs against.
func (s *SealedSpec) Program() *ir.Program { return s.prog }

// NumBlocks returns the ES id space size (including tombstones).
func (s *SealedSpec) NumBlocks() int { return len(s.blocks) }

// Block returns the sealed block by id, or nil for out-of-range ids and
// tombstones (reduced-away blocks): the dangling-successor cases.
func (s *SealedSpec) Block(id int) *SealedBlock {
	if id < 0 || id >= len(s.blocks) || !s.blocks[id].Live {
		return nil
	}
	return &s.blocks[id]
}

// BlockID returns the ES id for original block (handler, block), or
// NoBlock. This is the sealed replacement for Spec.BlockFor.
func (s *SealedSpec) BlockID(handler, block int) int {
	if handler < 0 || handler >= len(s.blockIDs) {
		return NoBlock
	}
	ids := s.blockIDs[handler]
	if block < 0 || block >= len(ids) {
		return NoBlock
	}
	return int(ids[block])
}

// HandlerEntry returns the ES id of the handler's entry block, or NoBlock.
func (s *SealedSpec) HandlerEntry(handler int) int {
	return s.BlockID(handler, 0)
}

// TempsDefinitelyAssigned reports that every temp read in the program
// is preceded by a write on all structural paths from its frame entry,
// so a simulator's frame push may skip zeroing its temp and flag banks.
func (s *SealedSpec) TempsDefinitelyAssigned() bool { return s.defAssigned }

// HandlerTemps returns handler h's temp-bank size (0 when out of range).
func (s *SealedSpec) HandlerTemps(h int) int {
	if h < 0 || h >= len(s.handlerTemps) {
		return 0
	}
	return int(s.handlerTemps[h])
}

// CaseNextEdge resolves a switch selector to its successor and the arm's
// trained-edge coverage slot. The slot rides along for free: it is
// EdgeBase plus the arm's offset in the sorted run.
func (s *SealedSpec) CaseNextEdge(b *SealedBlock, sel uint64) (next int, edge int32, ok bool) {
	lo, hi := int(b.CaseStart), int(b.CaseEnd)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c := &s.cases[mid]; c.K < sel {
			lo = mid + 1
		} else if c.K > sel {
			hi = mid
		} else {
			edge = NoEdge
			if b.EdgeBase != NoEdge {
				edge = b.EdgeBase + int32(mid-int(b.CaseStart))
			}
			return int(c.Next), edge, true
		}
	}
	return NoBlock, NoEdge, false
}

// NumEdges returns the trained-edge slot space size.
func (s *SealedSpec) NumEdges() int { return len(s.edgeFrom) }

// LegitimateTarget reports whether storing target in the function-pointer
// field was observed during training (sorted-slice binary search).
func (s *SealedSpec) LegitimateTarget(field int, target uint64) bool {
	if field < 0 || field >= len(s.indirect) {
		return false
	}
	set := s.indirect[field]
	lo, hi := 0, len(set)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if set[mid] < target {
			lo = mid + 1
		} else if set[mid] > target {
			hi = mid
		} else {
			return true
		}
	}
	return false
}

// CmdAccess returns command cmd's access vector: the blocks that may
// execute while cmd is active, global blocks included, so Has(block)
// answers CmdAccessTable.Accessible(cmd, block). An unlearned command
// gets the global set alone. The checker resolves it once per command
// decision, leaving one bit test per block transition.
func (s *SealedSpec) CmdAccess(cmd uint64) Bitset {
	if i, ok := slices.BinarySearch(s.cmds, cmd); ok {
		return s.cmdVecs[i]
	}
	return s.global
}

// ParamField reports whether the field is a selected device-state
// parameter (the sealed replacement for Selection.Contains).
func (s *SealedSpec) ParamField(field int) bool { return s.params.Has(field) }
