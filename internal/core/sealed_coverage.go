package core

import (
	"maps"

	"sedspec/internal/obs/coverage"
)

// CoverageProfile relates a runtime coverage snapshot back to the sealed
// structure: every live block with its training-visit baseline and total
// runtime hits, every trained edge with its endpoints, kind, and
// selector, and the learned command set. A nil snapshot (or one sized for
// a different generation) yields a structural profile with zero runtime
// counts.
//
// A block's runtime hits are its direct hits (round entries, call
// descents, static switch fallbacks) plus every trained edge landing on
// it — the checker counts each transition exactly once, on the edge when
// one is trained.
func (s *SealedSpec) CoverageProfile(gen uint64, snap *coverage.Snapshot) *coverage.Profile {
	if snap == nil || len(snap.Blocks) != len(s.blocks) || len(snap.Edges) != len(s.edgeFrom) {
		snap = &coverage.Snapshot{
			Blocks: make([]uint64, len(s.blocks)),
			Edges:  make([]uint64, len(s.edgeFrom)),
		}
	}
	blockHits := make([]uint64, len(s.blocks))
	copy(blockHits, snap.Blocks)
	for e, to := range s.edgeTo {
		blockHits[to] += snap.Edges[e]
	}

	rep := &s.lowering
	p := &coverage.Profile{
		Device:     s.Device,
		Generation: gen,
		Rounds:     blockHits[s.Entry],
		Lowering: &coverage.LoweringCov{
			Ops:        rep.Ops,
			Instrs:     rep.Instrs,
			Elided:     rep.Elided,
			FusedPairs: rep.FusedPairs(),
			FusedOps:   rep.FusedOps(),
			Density:    rep.FusedDensity(),
			Pairs:      maps.Clone(rep.Pairs),
		},
	}

	refOf := func(id int32) (handler, block int) {
		if b := s.Block(int(id)); b != nil {
			return b.Ref.Handler, b.Ref.Block
		}
		// Tombstone target: report the raw ES id under a synthetic
		// handler so the edge stays visible in the profile.
		return -1, int(id)
	}
	edge := func(from *SealedBlock, e int32, kind string, sel uint64) coverage.EdgeCov {
		th, tb := refOf(s.edgeTo[e])
		return coverage.EdgeCov{
			FromHandler: from.Ref.Handler,
			FromBlock:   from.Ref.Block,
			ToHandler:   th,
			ToBlock:     tb,
			Kind:        kind,
			Sel:         sel,
			Hits:        snap.Edges[e],
		}
	}

	for id := range s.blocks {
		b := &s.blocks[id]
		if !b.Live {
			continue
		}
		p.Blocks = append(p.Blocks, coverage.BlockCov{
			ID:          id,
			Handler:     b.Ref.Handler,
			Block:       b.Ref.Block,
			Kind:        b.Kind.String(),
			TrainVisits: s.visits[id],
			Hits:        blockHits[id],
		})
		if b.NextEdge != NoEdge {
			p.Edges = append(p.Edges, edge(b, b.NextEdge, "seq", 0))
		}
		if b.TakenEdge != NoEdge {
			p.Edges = append(p.Edges, edge(b, b.TakenEdge, "taken", 0))
		}
		if b.NotTakenEdge != NoEdge {
			p.Edges = append(p.Edges, edge(b, b.NotTakenEdge, "not-taken", 0))
		}
		if b.EdgeBase != NoEdge {
			for i := int(b.CaseStart); i < int(b.CaseEnd); i++ {
				c := s.cases[i]
				e := b.EdgeBase + int32(i-int(b.CaseStart))
				p.Edges = append(p.Edges, edge(b, e, "case", c.K))
			}
		}
	}
	p.Commands = append(p.Commands, s.cmds...)
	return p
}
