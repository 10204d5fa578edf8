package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"sedspec/internal/analysis"
	"sedspec/internal/ir"
)

// JSON is a write-only export of a specification, for people and
// tools to read. It references ops and terminators by position within
// the device program. Specs are read back only from the binary codec
// (DecodeBinary), which validates every reference.

type dsodJSON struct {
	Ref          analysis.OpRef `json:"ref"`
	Sync         bool           `json:"sync,omitempty"`
	ParamIndexed bool           `json:"paramIndexed,omitempty"`
}

type caseJSON struct {
	Value uint64 `json:"value"`
	Next  int    `json:"next"`
}

type nbtdJSON struct {
	Kind         ir.TermKind `json:"kind"`
	TakenSeen    bool        `json:"takenSeen,omitempty"`
	NotTakenSeen bool        `json:"notTakenSeen,omitempty"`
	TakenNext    int         `json:"takenNext"`
	NotTakenNext int         `json:"notTakenNext"`
	Cases        []caseJSON  `json:"cases,omitempty"`
}

type blockJSON struct {
	ID      int          `json:"id"`
	Ref     ir.BlockRef  `json:"ref"`
	Kind    ir.BlockKind `json:"kind"`
	DSOD    []dsodJSON   `json:"dsod,omitempty"`
	NBTD    *nbtdJSON    `json:"nbtd,omitempty"`
	Next    int          `json:"next"`
	Returns bool         `json:"returns,omitempty"`
	Halts   bool         `json:"halts,omitempty"`
	Visits  int          `json:"visits"`
}

type refMapJSON struct {
	Ref ir.BlockRef `json:"ref"`
	ID  int         `json:"id"`
}

type indirectJSON struct {
	Field   int      `json:"field"`
	Targets []uint64 `json:"targets"`
}

type accessJSON struct {
	Cmd    uint64 `json:"cmd"`
	Blocks []int  `json:"blocks"`
}

type specJSON struct {
	Device   string           `json:"device"`
	Entry    int              `json:"entry"`
	Params   []analysis.Param `json:"params"`
	Blocks   []*blockJSON     `json:"blocks"`
	ByRef    []refMapJSON     `json:"byRef"`
	Indirect []indirectJSON   `json:"indirect,omitempty"`
	Access   []accessJSON     `json:"access,omitempty"`
	Global   []int            `json:"global,omitempty"`
	Stats    Stats            `json:"stats"`
}

// Save writes the specification as JSON.
func (s *Spec) Save(w io.Writer) error {
	out := specJSON{
		Device: s.Device,
		Entry:  s.Entry,
		Params: s.Params.Params,
		Stats:  s.Stats,
	}
	for _, b := range s.Blocks {
		if b == nil {
			out.Blocks = append(out.Blocks, nil)
			continue
		}
		jb := &blockJSON{
			ID: b.ID, Ref: b.Ref, Kind: b.Kind, Next: b.Next,
			Returns: b.Returns, Halts: b.Halts, Visits: b.Visits,
		}
		for _, d := range b.DSOD {
			jb.DSOD = append(jb.DSOD, dsodJSON{Ref: d.Ref, Sync: d.Sync, ParamIndexed: d.ParamIndexed})
		}
		if b.NBTD != nil {
			jn := &nbtdJSON{
				Kind:      b.NBTD.Kind,
				TakenSeen: b.NBTD.TakenSeen, NotTakenSeen: b.NBTD.NotTakenSeen,
				TakenNext: b.NBTD.TakenNext, NotTakenNext: b.NBTD.NotTakenNext,
			}
			vals := make([]uint64, 0, len(b.NBTD.CaseNext))
			for v := range b.NBTD.CaseNext {
				vals = append(vals, v)
			}
			sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
			for _, v := range vals {
				jn.Cases = append(jn.Cases, caseJSON{Value: v, Next: b.NBTD.CaseNext[v]})
			}
			jb.NBTD = jn
		}
		out.Blocks = append(out.Blocks, jb)
	}
	for ref, id := range s.byRef {
		out.ByRef = append(out.ByRef, refMapJSON{Ref: ref, ID: id})
	}
	sort.Slice(out.ByRef, func(i, j int) bool {
		a, b := out.ByRef[i].Ref, out.ByRef[j].Ref
		if a.Handler != b.Handler {
			return a.Handler < b.Handler
		}
		return a.Block < b.Block
	})
	for field, set := range s.IndirectTargets {
		ij := indirectJSON{Field: field}
		for t := range set {
			ij.Targets = append(ij.Targets, t)
		}
		sort.Slice(ij.Targets, func(i, j int) bool { return ij.Targets[i] < ij.Targets[j] })
		out.Indirect = append(out.Indirect, ij)
	}
	sort.Slice(out.Indirect, func(i, j int) bool { return out.Indirect[i].Field < out.Indirect[j].Field })
	for cmd, set := range s.CmdTable.Access {
		aj := accessJSON{Cmd: cmd}
		for b := range set {
			aj.Blocks = append(aj.Blocks, b)
		}
		sort.Ints(aj.Blocks)
		out.Access = append(out.Access, aj)
	}
	sort.Slice(out.Access, func(i, j int) bool { return out.Access[i].Cmd < out.Access[j].Cmd })
	for b := range s.CmdTable.Global {
		out.Global = append(out.Global, b)
	}
	sort.Ints(out.Global)

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(&out); err != nil {
		return fmt.Errorf("core: save spec: %w", err)
	}
	return nil
}
