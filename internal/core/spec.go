// Package core implements SEDSpec's execution specification: the ES-CFG
// (paper §V). An execution specification abstracts an emulated device's
// legitimate control flow and device-state changes, learned from the
// device-state-change log collected under benign training samples, and is
// later enforced at runtime by the ES-Checker.
//
// The ES-CFG's basic blocks carry Device State Operation Data (DSOD) — the
// retained source statements that manipulate device state — and Next Block
// Transition Data (NBTD) — the statements that select the successor block
// from device-state parameters. Construction follows the paper's
// Algorithm 1, then applies control-flow reduction (merging conditional
// arms that reach the same block) and data-dependency recovery (retaining
// the computation of branch variables when derivable from device state and
// I/O data, inserting sync points when not).
package core

import (
	"fmt"
	"sort"
	"strings"

	"sedspec/internal/analysis"
	"sedspec/internal/ir"
)

// NoBlock marks an absent ES successor.
const NoBlock = -1

// DSODOp is one retained statement of a basic block's DSOD.
type DSODOp struct {
	// Op points into the device program (carrying the source statement).
	Op *ir.Op
	// Ref locates the op for serialization.
	Ref analysis.OpRef
	// Sync marks a sync point: the value is not derivable from device
	// state or I/O data and must be synchronized with the environment at
	// check time (paper §V-D).
	Sync bool
	// ParamIndexed marks buffer accesses whose index (or copy length)
	// derives from a device-state parameter. The parameter check's buffer
	// overflow test applies only to these — an access through a
	// temporary unrelated to the device state (CVE-2015-7504's case)
	// falls outside it, exactly as the paper reports (§VII-B2).
	ParamIndexed bool
}

// NBTD is a basic block's Next Block Transition Data: the conditional or
// switch terminator with the observed arm/target information.
type NBTD struct {
	Kind ir.TermKind
	// Term points to the original terminator (condition operands,
	// relation, source statement).
	Term *ir.Term

	// Conditional arms: which were observed during training and which ES
	// block each leads to (NoBlock when unobserved).
	TakenSeen    bool
	NotTakenSeen bool
	TakenNext    int
	NotTakenNext int

	// Switch: observed selector values and their ES successors. For
	// command-decision blocks the keys are the device commands of the
	// command access table.
	CaseNext map[uint64]int
}

// ESBlock is one basic block of the ES-CFG.
type ESBlock struct {
	ID   int
	Ref  ir.BlockRef
	Kind ir.BlockKind

	DSOD []DSODOp
	// NBTD is nil for blocks that transition unconditionally; Next then
	// holds the successor (NoBlock for return/halt blocks).
	NBTD *NBTD
	Next int

	// Returns marks blocks ending the handler (return) and Halts marks
	// blocks ending the I/O round.
	Returns bool
	Halts   bool

	// Visits counts training observations, for statistics.
	Visits int
}

// CmdAccessTable is the command access control table of Algorithm 1: for
// each device command observed at a command-decision block, the set of ES
// blocks legitimately accessible while the command is active.
type CmdAccessTable struct {
	// Access maps a command value to the accessible ES block set.
	Access map[uint64]map[int]bool
	// Global holds blocks accessible outside any command window.
	Global map[int]bool
}

// Accessible reports whether a block may execute while the command is
// active: it is in the command's access set or in the global set.
func (t *CmdAccessTable) Accessible(cmd uint64, block int) bool {
	if t.Global[block] {
		return true
	}
	av, ok := t.Access[cmd]
	return ok && av[block]
}

// Commands returns the number of learned commands.
func (t *CmdAccessTable) Commands() int { return len(t.Access) }

// Stats summarizes specification construction.
type Stats struct {
	TrainingRounds int `json:"trainingRounds"`
	// ObservedBlocks is the number of distinct original blocks seen.
	ObservedBlocks int `json:"observedBlocks"`
	// ESBlocks is the block count after reduction.
	ESBlocks int `json:"esBlocks"`
	// CompressedBlocks counts blocks elided by path compression.
	CompressedBlocks int `json:"compressedBlocks"`
	// MergedBranches counts NBTDs removed because both arms converged.
	MergedBranches int `json:"mergedBranches"`
	// KeptOps and DroppedOps count DSOD retention across the program.
	KeptOps    int `json:"keptOps"`
	DroppedOps int `json:"droppedOps"`
	// SyncPoints counts retained environment reads.
	SyncPoints int `json:"syncPoints"`
	// Commands is the command-access-table size.
	Commands int `json:"commands"`
	// IndirectTargets counts learned (function pointer, target) pairs.
	IndirectTargets int `json:"indirectTargets"`
}

// Spec is a device's execution specification.
type Spec struct {
	Device string
	prog   *ir.Program
	// Params is the device state: the parameters selected by the CFG
	// analyzer, which the check strategies guard.
	Params *analysis.Selection

	Blocks []*ESBlock
	byRef  map[ir.BlockRef]int

	// Entry is the ES block the checker starts each I/O round at.
	Entry int

	// IndirectTargets maps each function-pointer field to the set of
	// handler indices legitimately stored in it, learned from TIP-backed
	// observations. The indirect-jump check validates against this.
	IndirectTargets map[int]map[uint64]bool

	CmdTable *CmdAccessTable
	Stats    Stats
}

// Program returns the device program the spec was built from.
func (s *Spec) Program() *ir.Program { return s.prog }

// BlockFor returns the ES block id for an original block, or NoBlock.
func (s *Spec) BlockFor(ref ir.BlockRef) int {
	if id, ok := s.byRef[ref]; ok {
		return id
	}
	return NoBlock
}

// Covers reports whether the original block is part of the specification
// (directly or merged into another block). The effective-coverage metric
// is computed against this.
func (s *Spec) Covers(ref ir.BlockRef) bool {
	_, ok := s.byRef[ref]
	return ok
}

// Block returns the ES block by id; nil if out of range.
func (s *Spec) Block(id int) *ESBlock {
	if id < 0 || id >= len(s.Blocks) {
		return nil
	}
	return s.Blocks[id]
}

// LegitimateTarget reports whether storing target in the function-pointer
// field was observed during training.
func (s *Spec) LegitimateTarget(field int, target uint64) bool {
	set, ok := s.IndirectTargets[field]
	return ok && set[target]
}

// String renders a construction summary.
func (s *Spec) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "execution specification for %s:\n", s.Device)
	fmt.Fprintf(&sb, "  training rounds:   %d\n", s.Stats.TrainingRounds)
	fmt.Fprintf(&sb, "  observed blocks:   %d\n", s.Stats.ObservedBlocks)
	fmt.Fprintf(&sb, "  ES blocks:         %d (%d compressed, %d branches merged)\n",
		s.Stats.ESBlocks, s.Stats.CompressedBlocks, s.Stats.MergedBranches)
	fmt.Fprintf(&sb, "  DSOD ops:          %d kept / %d dropped\n", s.Stats.KeptOps, s.Stats.DroppedOps)
	fmt.Fprintf(&sb, "  sync points:       %d\n", s.Stats.SyncPoints)
	fmt.Fprintf(&sb, "  commands:          %d\n", s.Stats.Commands)
	fmt.Fprintf(&sb, "  indirect targets:  %d\n", s.Stats.IndirectTargets)
	fmt.Fprintf(&sb, "  device state:      %d params\n", len(s.Params.Params))
	return sb.String()
}

// Dot renders the ES-CFG in Graphviz format.
func (s *Spec) Dot() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", s.Device+"_es_cfg")
	for _, b := range s.Blocks {
		if b == nil {
			continue
		}
		orig := s.prog.Block(b.Ref)
		h := s.prog.Handlers[b.Ref.Handler]
		fmt.Fprintf(&sb, "  n%d [label=\"%s/%s\\n%s dsod=%d\"];\n",
			b.ID, h.Name, orig.Label, b.Kind, len(b.DSOD))
		switch {
		case b.NBTD != nil && b.NBTD.Kind == ir.TermBranch:
			if b.NBTD.TakenSeen {
				fmt.Fprintf(&sb, "  n%d -> n%d [label=\"T\"];\n", b.ID, b.NBTD.TakenNext)
			}
			if b.NBTD.NotTakenSeen {
				fmt.Fprintf(&sb, "  n%d -> n%d [label=\"N\"];\n", b.ID, b.NBTD.NotTakenNext)
			}
		case b.NBTD != nil && b.NBTD.Kind == ir.TermSwitch:
			vals := make([]uint64, 0, len(b.NBTD.CaseNext))
			for v := range b.NBTD.CaseNext {
				vals = append(vals, v)
			}
			sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
			for _, v := range vals {
				fmt.Fprintf(&sb, "  n%d -> n%d [label=\"cmd %#x\"];\n", b.ID, b.NBTD.CaseNext[v], v)
			}
		case b.Next != NoBlock:
			fmt.Fprintf(&sb, "  n%d -> n%d;\n", b.ID, b.Next)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
