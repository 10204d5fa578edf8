package analysis

import (
	"fmt"
	"sort"
	"strings"

	"sedspec/internal/ir"
	"sedspec/internal/itccfg"
)

// ParamClass is the device-state parameter classification of Table I.
type ParamClass uint8

const (
	// ClassRegister mirrors a physical device register (Rule 1).
	ClassRegister ParamClass = iota + 1
	// ClassBuffer is a fixed-length buffer variable (Rule 2).
	ClassBuffer
	// ClassIndex counts or indexes buffer positions (Rule 2).
	ClassIndex
	// ClassFuncPtr is a function-pointer variable (Rule 2).
	ClassFuncPtr
)

func (c ParamClass) String() string {
	switch c {
	case ClassRegister:
		return "register"
	case ClassBuffer:
		return "buffer"
	case ClassIndex:
		return "index"
	case ClassFuncPtr:
		return "funcptr"
	default:
		return fmt.Sprintf("ParamClass(%d)", uint8(c))
	}
}

// Param is one selected device-state parameter.
type Param struct {
	Field int        `json:"field"`
	Name  string     `json:"name"`
	Class ParamClass `json:"class"`
	// Rule is the selection rule that admitted the parameter (1 or 2).
	Rule int `json:"rule"`
}

// Selection is the device state: the parameters chosen by the CFG analyzer.
type Selection struct {
	prog    *ir.Program
	Params  []Param
	byField map[int]int
}

// NewSelection rebuilds a selection from stored parameters (spec
// deserialization).
func NewSelection(prog *ir.Program, params []Param) *Selection {
	s := &Selection{prog: prog, Params: params, byField: make(map[int]int, len(params))}
	for i, p := range params {
		s.byField[p.Field] = i
	}
	return s
}

// Program returns the device program the selection belongs to.
func (s *Selection) Program() *ir.Program { return s.prog }

// Contains reports whether the field is a selected parameter.
func (s *Selection) Contains(field int) bool {
	_, ok := s.byField[field]
	return ok
}

// ParamFor returns the parameter record for a field, or nil.
func (s *Selection) ParamFor(field int) *Param {
	if i, ok := s.byField[field]; ok {
		return &s.Params[i]
	}
	return nil
}

// WatchList returns the selected field indices in ascending order — the
// parameters whose values the observation log keeps (Recorder.Project).
func (s *Selection) WatchList() []int {
	out := make([]int, 0, len(s.Params))
	for _, p := range s.Params {
		out = append(out, p.Field)
	}
	sort.Ints(out)
	return out
}

// String renders the selection as a Table I-style summary.
func (s *Selection) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "device state of %s (%d params):\n", s.prog.Name, len(s.Params))
	for _, p := range s.Params {
		fmt.Fprintf(&sb, "  %-16s %-8s rule %d (%s)\n",
			p.Name, p.Class, p.Rule, s.prog.Fields[p.Field].CType())
	}
	return sb.String()
}

// SelectParams applies the paper's two selection rules over the observed
// control flow:
//
// Candidates are the variables influencing conditional and indirect jump
// structures found in the ITC-CFG. Rule 1 admits candidates that mirror
// physical device registers. Rule 2 admits fixed-length buffers touched by
// observed code, integer variables used to index or count buffer
// positions, and function pointers invoked indirectly.
func SelectParams(g *itccfg.Graph) *Selection {
	p := g.Program()
	sel := &Selection{prog: p, byField: make(map[int]int)}

	flows := make(map[int]*HandlerFlow)
	flowOf := func(h int) *HandlerFlow {
		f := flows[h]
		if f == nil {
			f = FlowOf(p, h)
			flows[h] = f
		}
		return f
	}

	condInfluencers := make(map[int]bool) // fields feeding branch/switch conditions
	bufUsed := make(map[int]bool)         // buffer fields accessed
	idxFields := make(map[int]bool)       // int fields used as index/length
	funcCalled := make(map[int]bool)      // func fields invoked indirectly

	noteInfluence := func(hf *HandlerFlow, temp int, into map[int]bool) {
		for f := range hf.TempInfluence(temp).Fields {
			into[f] = true
		}
	}

	for _, n := range g.Nodes() {
		h := &p.Handlers[n.Ref.Handler]
		if h.Region != ir.RegionDevice {
			continue
		}
		b := &h.Blocks[n.Ref.Block]
		hf := flowOf(n.Ref.Handler)

		switch b.Term.Kind {
		case ir.TermBranch:
			noteInfluence(hf, b.Term.A, condInfluencers)
			noteInfluence(hf, b.Term.B, condInfluencers)
		case ir.TermSwitch:
			noteInfluence(hf, b.Term.A, condInfluencers)
		}

		for oi := range b.Ops {
			op := &b.Ops[oi]
			switch op.Code {
			case ir.OpBufLoad, ir.OpBufStore:
				bufUsed[op.Field] = true
				noteInfluence(hf, op.Idx, idxFields)
			case ir.OpDMAToBuf, ir.OpDMAFromBuf:
				bufUsed[op.Field] = true
				noteInfluence(hf, op.Idx, idxFields)
				noteInfluence(hf, op.B, idxFields)
			case ir.OpIOToBuf:
				bufUsed[op.Field] = true
				noteInfluence(hf, op.Idx, idxFields)
				noteInfluence(hf, op.B, idxFields)
			case ir.OpCallPtr:
				funcCalled[op.Field] = true
			}
		}
	}

	// Counting variables (Table I row 3): integer fields compared against
	// index-influencing values in observed conditions also count or bound
	// buffer positions (data_len against data_pos, and so on). Iterate to
	// a fixpoint so chains of counters resolve.
	isIdxLike := func(inf *Influence) bool {
		for f := range inf.Fields {
			if idxFields[f] || (p.Fields[f].Kind == ir.FieldBuf && bufUsed[f]) {
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes() {
			h := &p.Handlers[n.Ref.Handler]
			if h.Region != ir.RegionDevice {
				continue
			}
			b := &h.Blocks[n.Ref.Block]
			if b.Term.Kind != ir.TermBranch {
				continue
			}
			hf := flowOf(n.Ref.Handler)
			infA, infB := hf.TempInfluence(b.Term.A), hf.TempInfluence(b.Term.B)
			for _, pair := range [][2]*Influence{{infA, infB}, {infB, infA}} {
				if !isIdxLike(pair[0]) {
					continue
				}
				for f := range pair[1].Fields {
					if p.Fields[f].Kind == ir.FieldInt && !idxFields[f] {
						idxFields[f] = true
						changed = true
					}
				}
			}
		}
	}

	add := func(field int, class ParamClass, rule int) {
		if _, dup := sel.byField[field]; dup {
			return
		}
		sel.byField[field] = len(sel.Params)
		sel.Params = append(sel.Params, Param{
			Field: field,
			Name:  p.Fields[field].Name,
			Class: class,
			Rule:  rule,
		})
	}

	for fi := range p.Fields {
		f := &p.Fields[fi]
		switch {
		// Rule 1: register-backed variables influencing control flow.
		case f.Kind == ir.FieldInt && f.HWRegister && condInfluencers[fi]:
			add(fi, ClassRegister, 1)
		// Rule 2: buffers, their indices/counters, function pointers.
		case f.Kind == ir.FieldBuf && bufUsed[fi]:
			add(fi, ClassBuffer, 2)
		case f.Kind == ir.FieldInt && idxFields[fi]:
			add(fi, ClassIndex, 2)
		case f.Kind == ir.FieldFunc && funcCalled[fi]:
			add(fi, ClassFuncPtr, 2)
		}
	}
	return sel
}

// ObservationPoints returns the blocks where observation instrumentation
// is placed: conditional and indirect jump sites in the observed control
// flow, plus typed blocks (entry/exit/command boundaries), per paper §IV-B.
func ObservationPoints(g *itccfg.Graph) []ir.BlockRef {
	var out []ir.BlockRef
	p := g.Program()
	for _, n := range g.Nodes() {
		b := p.Block(n.Ref)
		interesting := b.Kind != ir.KindNormal ||
			b.Term.Kind == ir.TermBranch || b.Term.Kind == ir.TermSwitch
		if !interesting {
			for oi := range b.Ops {
				if b.Ops[oi].Code == ir.OpCallPtr {
					interesting = true
					break
				}
			}
		}
		if interesting {
			out = append(out, n.Ref)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Handler != out[j].Handler {
			return out[i].Handler < out[j].Handler
		}
		return out[i].Block < out[j].Block
	})
	return out
}
