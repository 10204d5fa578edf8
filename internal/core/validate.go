package core

import (
	"fmt"

	"sedspec/internal/ir"
)

// validate checks a decoded spec against everything Seal and the
// threaded lowering index without their own bounds checks, so that no
// blob, however crafted, reaches Seal's consistency panic or an index
// out of range:
//
//   - the entry is a live block;
//   - every live block sits at its own id and names a program block;
//   - every DSOD op belongs to its block's handler, so the op's temps
//     fit the temp bank a frame for that block allocates;
//   - Next and the branch arms are NoBlock or ES ids, and switch arms
//     are ES ids (each gets a coverage edge);
//   - an NBTD is a branch or a switch and matches its terminator;
//   - id-table refs name program blocks and map to NoBlock or ES ids;
//   - access-table blocks are ES ids and parameters name program fields.
func (s *Spec) validate() error {
	prog, n := s.prog, len(s.Blocks)
	if s.Entry < 0 || s.Entry >= n || s.Blocks[s.Entry] == nil {
		return fmt.Errorf("entry block %d invalid", s.Entry)
	}
	validRef := func(ref ir.BlockRef) bool {
		return ref.Handler >= 0 && ref.Handler < len(prog.Handlers) &&
			ref.Block >= 0 && ref.Block < len(prog.Handlers[ref.Handler].Blocks)
	}
	succ := func(id int) bool { return id >= NoBlock && id < n }
	for id, b := range s.Blocks {
		if b == nil {
			continue
		}
		if b.ID != id {
			return fmt.Errorf("block %d: stored under id %d", id, b.ID)
		}
		if !validRef(b.Ref) {
			return fmt.Errorf("block %d: ref %v names no program block", id, b.Ref)
		}
		for _, d := range b.DSOD {
			if d.Ref.Handler != b.Ref.Handler {
				return fmt.Errorf("block %d: DSOD op from handler %d in a block of handler %d", id, d.Ref.Handler, b.Ref.Handler)
			}
		}
		if !succ(b.Next) {
			return fmt.Errorf("block %d: next id %d out of range", id, b.Next)
		}
		nb := b.NBTD
		if nb == nil {
			continue
		}
		if nb.Kind != nb.Term.Kind || (nb.Kind != ir.TermBranch && nb.Kind != ir.TermSwitch) {
			return fmt.Errorf("block %d: NBTD kind %v on a %v terminator", id, nb.Kind, nb.Term.Kind)
		}
		if nb.Kind == ir.TermBranch && len(nb.CaseNext) > 0 {
			return fmt.Errorf("block %d: branch NBTD carries switch arms", id)
		}
		if !succ(nb.TakenNext) || !succ(nb.NotTakenNext) {
			return fmt.Errorf("block %d: branch target out of range", id)
		}
		for v, next := range nb.CaseNext {
			if next < 0 || next >= n {
				return fmt.Errorf("block %d: case %#x target %d out of range", id, v, next)
			}
		}
	}
	for ref, id := range s.byRef {
		if !validRef(ref) || !succ(id) {
			return fmt.Errorf("id table entry %v -> %d out of range", ref, id)
		}
	}
	for b := range s.CmdTable.Global {
		if b < 0 || b >= n {
			return fmt.Errorf("global access block %d out of range", b)
		}
	}
	for cmd, set := range s.CmdTable.Access {
		for b := range set {
			if b < 0 || b >= n {
				return fmt.Errorf("command %#x access block %d out of range", cmd, b)
			}
		}
	}
	for _, p := range s.Params.Params {
		if p.Field < 0 || p.Field >= len(prog.Fields) {
			return fmt.Errorf("parameter field %d out of range", p.Field)
		}
	}
	return nil
}
