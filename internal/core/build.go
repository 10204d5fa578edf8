package core

import (
	"errors"
	"fmt"
	"sort"

	"sedspec/internal/analysis"
	"sedspec/internal/ir"
)

// ErrNoTraining is returned when the log contains no usable rounds.
var ErrNoTraining = errors.New("core: no usable training rounds")

// BuildOpts tunes specification construction (ablation switches).
type BuildOpts struct {
	// DisableReduction skips control-flow reduction (paper §V-C): no
	// block compression and no branch merging. Used by the reduction
	// ablation.
	DisableReduction bool
}

// Build constructs the execution specification from the device program
// ("source code"), the CFG analyzer's parameter selection, and the
// device-state-change log, following Algorithm 1 and then applying
// control-flow reduction and data-dependency recovery.
func Build(prog *ir.Program, params *analysis.Selection, log *analysis.Log) (*Spec, error) {
	return BuildWith(prog, params, log, BuildOpts{})
}

// BuildWith is Build with explicit options.
func BuildWith(prog *ir.Program, params *analysis.Selection, log *analysis.Log, opts BuildOpts) (*Spec, error) {
	b := &builder{
		opts:      opts,
		prog:      prog,
		params:    params,
		obs:       make(map[ir.BlockRef]*obsBlock),
		indirect:  make(map[int]map[uint64]bool),
		cmdAccess: make(map[uint64]map[ir.BlockRef]bool),
		global:    make(map[ir.BlockRef]bool),
		slices:    make(map[int]*analysis.Slice),
		flows:     make(map[int]*analysis.HandlerFlow),
	}
	rounds := log.CleanRounds()
	if len(rounds) == 0 {
		return nil, ErrNoTraining
	}
	for _, r := range rounds {
		b.scanRound(r)
	}
	return b.finish(len(rounds))
}

// obsBlock accumulates training observations for one original block.
type obsBlock struct {
	ref    ir.BlockRef
	visits int

	takenSeen    bool
	notTakenSeen bool
	casesSeen    map[uint64]bool
}

type builder struct {
	opts   BuildOpts
	prog   *ir.Program
	params *analysis.Selection

	obs      map[ir.BlockRef]*obsBlock
	indirect map[int]map[uint64]bool

	// Command access collection (Algorithm 1 lines 14-21). The active
	// command persists across I/O rounds: device commands commonly span
	// several port accesses.
	cmdAccess map[uint64]map[ir.BlockRef]bool
	global    map[ir.BlockRef]bool
	activeCmd uint64
	cmdActive bool

	slices map[int]*analysis.Slice
	flows  map[int]*analysis.HandlerFlow
}

func (b *builder) sliceOf(h int) *analysis.Slice {
	s := b.slices[h]
	if s == nil {
		s = analysis.ComputeSlice(b.prog, h)
		b.slices[h] = s
	}
	return s
}

func (b *builder) flowOf(h int) *analysis.HandlerFlow {
	f := b.flows[h]
	if f == nil {
		f = analysis.FlowOf(b.prog, h)
		b.flows[h] = f
	}
	return f
}

// paramIndexed reports whether a buffer op's index (or copy length)
// derives from a selected device-state parameter.
func (b *builder) paramIndexed(handler int, op *ir.Op) bool {
	hf := b.flowOf(handler)
	check := func(t int) bool {
		for f := range hf.TempInfluence(t).Fields {
			if b.params.Contains(f) {
				return true
			}
		}
		return false
	}
	switch op.Code {
	case ir.OpBufLoad, ir.OpBufStore:
		return check(op.Idx)
	case ir.OpDMAToBuf, ir.OpDMAFromBuf, ir.OpIOToBuf:
		return check(op.Idx) || check(op.B)
	default:
		return false
	}
}

func (b *builder) touch(ref ir.BlockRef) *obsBlock {
	o := b.obs[ref]
	if o == nil {
		o = &obsBlock{ref: ref}
		b.obs[ref] = o
	}
	o.visits++
	return o
}

// scanRound is the per-log body of Algorithm 1: restore the round's control
// flow and record block observations, branch arms, commands, and access
// vectors.
func (b *builder) scanRound(r *analysis.Round) {
	for _, ev := range r.Events {
		// The specification covers device code only; shared-library and
		// kernel control flow is outside it, like the trace filters.
		if b.prog.Handlers[ev.Block.Handler].Region != ir.RegionDevice {
			continue
		}

		// Indirect-call observations record legitimate targets but are
		// not separate block visits.
		if ev.IndirectField >= 0 {
			if ref, ok := b.prog.BlockAt(ev.Target); ok {
				set := b.indirect[ev.IndirectField]
				if set == nil {
					set = make(map[uint64]bool)
					b.indirect[ev.IndirectField] = set
				}
				set[uint64(ref.Handler)] = true
			}
			continue
		}

		o := b.touch(ev.Block)
		block := b.prog.Block(ev.Block)

		switch ev.Term {
		case ir.TermBranch:
			if ev.Taken {
				o.takenSeen = true
			} else {
				o.notTakenSeen = true
			}
		case ir.TermSwitch:
			if o.casesSeen == nil {
				o.casesSeen = make(map[uint64]bool)
			}
			o.casesSeen[ev.CmdValue] = true
			if block.Kind == ir.KindCmdDecision {
				b.activeCmd = ev.CmdValue
				b.cmdActive = true
				if b.cmdAccess[b.activeCmd] == nil {
					b.cmdAccess[b.activeCmd] = make(map[ir.BlockRef]bool)
				}
			}
		}

		// Access vector update (UpdateAV / UpdateCAT).
		if b.cmdActive {
			b.cmdAccess[b.activeCmd][ev.Block] = true
		} else {
			b.global[ev.Block] = true
		}
		if block.Kind == ir.KindCmdEnd {
			b.cmdActive = false
		}
	}
}

// finish builds ES blocks from the observations, links successors, applies
// reduction, and assembles the final specification.
func (b *builder) finish(rounds int) (*Spec, error) {
	refs := make([]ir.BlockRef, 0, len(b.obs))
	for ref := range b.obs {
		refs = append(refs, ref)
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Handler != refs[j].Handler {
			return refs[i].Handler < refs[j].Handler
		}
		return refs[i].Block < refs[j].Block
	})

	s := &Spec{
		Device:          b.prog.Name,
		prog:            b.prog,
		Params:          b.params,
		byRef:           make(map[ir.BlockRef]int, len(refs)),
		IndirectTargets: b.indirect,
	}

	for _, ref := range refs {
		id := len(s.Blocks)
		s.byRef[ref] = id
		s.Blocks = append(s.Blocks, b.makeBlock(id, ref))
	}
	b.linkBlocks(s)

	// Control-flow reduction (paper §V-C).
	if !b.opts.DisableReduction {
		for {
			compressed := compressBlocks(s)
			merged := mergeBranches(s)
			s.Stats.CompressedBlocks += compressed
			s.Stats.MergedBranches += merged
			if compressed == 0 && merged == 0 {
				break
			}
		}
	}

	// Command access table over final block ids.
	s.CmdTable = &CmdAccessTable{
		Access: make(map[uint64]map[int]bool, len(b.cmdAccess)),
		Global: make(map[int]bool, len(b.global)),
	}
	for cmd, set := range b.cmdAccess {
		av := make(map[int]bool, len(set))
		for ref := range set {
			if id, ok := s.byRef[ref]; ok {
				av[id] = true
			}
		}
		s.CmdTable.Access[cmd] = av
	}
	for ref := range b.global {
		if id, ok := s.byRef[ref]; ok {
			s.CmdTable.Global[id] = true
		}
	}

	entryRef := ir.BlockRef{Handler: b.prog.DispatchHandler, Block: 0}
	entry, ok := s.byRef[entryRef]
	if !ok {
		return nil, fmt.Errorf("core: dispatch entry never observed: %w", ErrNoTraining)
	}
	s.Entry = entry

	// Statistics.
	s.Stats.TrainingRounds = rounds
	s.Stats.ObservedBlocks = len(refs)
	for _, blk := range s.Blocks {
		if blk != nil {
			s.Stats.ESBlocks++
		}
	}
	for _, sl := range b.slices {
		s.Stats.KeptOps += sl.KeptOps
		s.Stats.DroppedOps += sl.DroppedOps
		s.Stats.SyncPoints += len(sl.SyncPoints)
	}
	s.Stats.Commands = len(s.CmdTable.Access)
	for _, set := range b.indirect {
		s.Stats.IndirectTargets += len(set)
	}
	return s, nil
}

// makeBlock builds the ES block for one observed original block: DSOD from
// the retained-op slice (data-dependency recovery marks environment reads
// as sync points) and the NBTD skeleton.
func (b *builder) makeBlock(id int, ref ir.BlockRef) *ESBlock {
	o := b.obs[ref]
	block := b.prog.Block(ref)
	sl := b.sliceOf(ref.Handler)

	es := &ESBlock{
		ID:     id,
		Ref:    ref,
		Kind:   block.Kind,
		Next:   NoBlock,
		Visits: o.visits,
	}
	for oi := range block.Ops {
		if !sl.Kept[ref.Block][oi] {
			continue
		}
		op := &block.Ops[oi]
		es.DSOD = append(es.DSOD, DSODOp{
			Op:           op,
			Ref:          analysis.OpRef{Handler: ref.Handler, Block: ref.Block, Op: oi},
			Sync:         op.Code == ir.OpEnvRead,
			ParamIndexed: b.paramIndexed(ref.Handler, op),
		})
	}

	switch block.Term.Kind {
	case ir.TermBranch:
		es.NBTD = &NBTD{
			Kind:         ir.TermBranch,
			Term:         &block.Term,
			TakenSeen:    o.takenSeen,
			NotTakenSeen: o.notTakenSeen,
			TakenNext:    NoBlock,
			NotTakenNext: NoBlock,
		}
	case ir.TermSwitch:
		es.NBTD = &NBTD{
			Kind:     ir.TermSwitch,
			Term:     &block.Term,
			CaseNext: make(map[uint64]int, len(o.casesSeen)),
		}
	case ir.TermReturn:
		es.Returns = true
	case ir.TermHalt:
		es.Halts = true
	}
	return es
}

// linkBlocks resolves successor ES ids from the static program.
func (b *builder) linkBlocks(s *Spec) {
	lookup := func(handler, blockIdx int) int {
		if id, ok := s.byRef[ir.BlockRef{Handler: handler, Block: blockIdx}]; ok {
			return id
		}
		return NoBlock
	}
	for _, es := range s.Blocks {
		block := b.prog.Block(es.Ref)
		o := b.obs[es.Ref]
		switch block.Term.Kind {
		case ir.TermJump:
			es.Next = lookup(es.Ref.Handler, block.Term.Target)
		case ir.TermBranch:
			if es.NBTD.TakenSeen {
				es.NBTD.TakenNext = lookup(es.Ref.Handler, block.Term.Taken)
			}
			if es.NBTD.NotTakenSeen {
				es.NBTD.NotTakenNext = lookup(es.Ref.Handler, block.Term.NotTaken)
			}
		case ir.TermSwitch:
			for v := range o.casesSeen {
				es.NBTD.CaseNext[v] = lookup(es.Ref.Handler, staticSwitchTarget(&block.Term, v))
			}
		}
	}
}

// staticSwitchTarget resolves a selector value against the switch cases.
func staticSwitchTarget(t *ir.Term, v uint64) int {
	for _, c := range t.Cases {
		if c.Value == v {
			return c.Target
		}
	}
	return t.Default
}

// compressBlocks elides normal blocks with no DSOD and an unconditional
// successor, re-pointing every reference to their (transitive) target. It
// returns the number of blocks removed.
func compressBlocks(s *Spec) int {
	// resolve follows compressible chains with a cycle guard.
	var resolve func(id int, hops int) int
	compressible := func(id int) bool {
		blk := s.Block(id)
		return blk != nil && blk.Kind == ir.KindNormal && len(blk.DSOD) == 0 &&
			blk.NBTD == nil && !blk.Returns && !blk.Halts && blk.Next != NoBlock
	}
	resolve = func(id, hops int) int {
		if hops > len(s.Blocks) || !compressible(id) {
			return id
		}
		return resolve(s.Block(id).Next, hops+1)
	}

	redirect := func(id int) int {
		if id == NoBlock {
			return id
		}
		return resolve(id, 0)
	}

	removed := 0
	for _, blk := range s.Blocks {
		if blk == nil {
			continue
		}
		if blk.NBTD != nil {
			blk.NBTD.TakenNext = redirect(blk.NBTD.TakenNext)
			blk.NBTD.NotTakenNext = redirect(blk.NBTD.NotTakenNext)
			for v, n := range blk.NBTD.CaseNext {
				blk.NBTD.CaseNext[v] = redirect(n)
			}
		} else {
			blk.Next = redirect(blk.Next)
		}
	}
	for ref, id := range s.byRef {
		if t := redirect(id); t != id {
			s.byRef[ref] = t
		}
	}
	for i, blk := range s.Blocks {
		if blk != nil && compressible(blk.ID) && resolve(blk.ID, 0) != blk.ID {
			s.Blocks[i] = nil
			removed++
		}
	}
	return removed
}

// mergeBranches removes NBTDs whose observed arms converge on the same ES
// block (paper §V-C: merge and remove the NBTD of the previous block).
func mergeBranches(s *Spec) int {
	merged := 0
	for _, blk := range s.Blocks {
		if blk == nil || blk.NBTD == nil || blk.NBTD.Kind != ir.TermBranch {
			continue
		}
		n := blk.NBTD
		if n.TakenSeen && n.NotTakenSeen && n.TakenNext == n.NotTakenNext && n.TakenNext != NoBlock {
			blk.Next = n.TakenNext
			blk.NBTD = nil
			merged++
		}
	}
	return merged
}
