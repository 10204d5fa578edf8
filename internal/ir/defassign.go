package ir

// Definitely-assigned temp analysis.
//
// The builder mints temps at value-production sites, so handler code is
// expected to write every temp before reading it on every path. When
// that holds for a whole program, a simulator's frame push does not
// need to zero the new temp bank: no read can observe the previous
// frame's residue. DefiniteTemps verifies the property once, over the
// structural CFG — a superset of any path a checker can take through
// the handler (trained edges and static switch fallbacks are all
// structural successors, and calls start the callee at block 0) — so a
// sealed spec may skip the per-round clears soundly.

// DefiniteTemps reports whether every temp read in every handler is
// definitely assigned before use on all structural paths from the
// handler's entry block (block 0). Flag slots are written by exactly
// the ops that write their temp, so the property covers the flag bank
// too.
//
// A built program is immutable, so Build runs the analysis once and
// every later call (one per Seal) reads the stored answer. A program
// that never went through Build is analysed on each call.
func (p *Program) DefiniteTemps() bool {
	if p.finalized {
		return p.definite
	}
	return p.definiteTemps()
}

// definiteTemps runs the analysis behind DefiniteTemps.
func (p *Program) definiteTemps() bool {
	for hi := range p.Handlers {
		if !handlerDefinite(&p.Handlers[hi]) {
			return false
		}
	}
	return true
}

// handlerDefinite runs a must-analysis over one handler's block graph:
// IN[b] is the set of temps assigned on every path reaching b, OUT[b] =
// IN[b] ∪ writes(b), IN[b] = ∩ OUT[pred]. The handler passes when each
// reachable block's upward-exposed reads are covered by its IN set.
func handlerDefinite(h *Handler) bool {
	nb := len(h.Blocks)
	nt := h.NumTemps
	if nb == 0 || nt == 0 {
		return true
	}
	words := (nt + 63) / 64
	bits := func(sets []uint64, b int) []uint64 { return sets[b*words : (b+1)*words] }
	gen := make([]uint64, nb*words)  // temps written in the block
	need := make([]uint64, nb*words) // temps read before any local write
	var uses, succ []int
	for bi := range h.Blocks {
		b := &h.Blocks[bi]
		g, nd := bits(gen, bi), bits(need, bi)
		mark := func(t int) {
			if t >= 0 && t < nt && g[t>>6]&(1<<(uint(t)&63)) == 0 {
				nd[t>>6] |= 1 << (uint(t) & 63)
			}
		}
		for oi := range b.Ops {
			op := &b.Ops[oi]
			uses = op.usesTemps(uses[:0])
			for _, t := range uses {
				mark(t)
			}
			if d := op.defsTemp(); d >= 0 && d < nt {
				g[d>>6] |= 1 << (uint(d) & 63)
			}
		}
		uses = b.Term.usesTemps(uses[:0])
		for _, t := range uses {
			mark(t)
		}
	}
	// Forward must-dataflow from block 0; unvisited blocks sit at top
	// (all-assigned) so they never weaken a meet until reached.
	in := make([]uint64, nb*words)
	for i := range in {
		in[i] = ^uint64(0)
	}
	visited := make([]bool, nb)
	visited[0] = true
	for w := range bits(in, 0) {
		bits(in, 0)[w] = 0
	}
	changed := true
	for changed {
		changed = false
		for bi := range h.Blocks {
			if !visited[bi] {
				continue
			}
			ib, gb := bits(in, bi), bits(gen, bi)
			succ = h.Blocks[bi].Term.Successors(succ[:0])
			for _, s := range succ {
				if s < 0 || s >= nb {
					continue
				}
				is := bits(in, s)
				if !visited[s] {
					visited[s] = true
					for w := range is {
						is[w] = ib[w] | gb[w]
					}
					changed = true
					continue
				}
				for w := range is {
					if m := is[w] & (ib[w] | gb[w]); m != is[w] {
						is[w] = m
						changed = true
					}
				}
			}
		}
	}
	for bi := range h.Blocks {
		if !visited[bi] {
			continue
		}
		ib, nd := bits(in, bi), bits(need, bi)
		for w := range nd {
			if nd[w]&^ib[w] != 0 {
				return false
			}
		}
	}
	return true
}
