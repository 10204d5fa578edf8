// Package coverage holds runtime ES-CFG coverage: dense per-block and
// per-edge hit counters indexed off the sealed spec's flat block and edge
// tables, snapshots that merge across shared sessions, and structural
// profiles that relate runtime hits back to the training corpus so two
// spec generations can be diffed (see Drift).
//
// The package is deliberately free of internal dependencies: the sealed
// spec owns the index spaces (core assigns edge slots at Seal), the
// checker calls HitBlock/HitEdge on its transition path, and everything
// above (specstore, the engine's /fleet coverage rollup, cmds) consumes
// the plain Snapshot/Profile/Drift data.
package coverage

import "sync/atomic"

// Map counts runtime hits against one sealed spec generation. The hot
// side is single-writer: HitBlock/HitEdge belong to the one goroutine
// driving the session and are plain increments on pre-sized pending
// arrays — no atomics, no allocation. Flush folds the pending deltas
// into a published bank of atomic counters, which is the only side
// Snapshot reads; the session's owner flushes on its own schedule (the
// checker publishes every 64 rounds), so a concurrent snapshot lags the
// live session by at most that schedule and is a consistent lower bound.
type Map struct {
	blocks []atomic.Uint64
	edges  []atomic.Uint64

	pendBlocks []uint64
	pendEdges  []uint64
}

// NewMap returns a zeroed map sized for a sealed spec's block and edge
// tables.
func NewMap(numBlocks, numEdges int) *Map {
	return &Map{
		blocks:     make([]atomic.Uint64, numBlocks),
		edges:      make([]atomic.Uint64, numEdges),
		pendBlocks: make([]uint64, numBlocks),
		pendEdges:  make([]uint64, numEdges),
	}
}

// HitBlock counts a direct entry into block id: a round entry, a call
// descent, or a transition that has no trained edge slot (the static
// switch fallback). Single-writer: the session's driving goroutine only.
func (m *Map) HitBlock(id int) { m.pendBlocks[id]++ }

// HitEdge counts a traversal of trained edge slot e. Single-writer.
func (m *Map) HitEdge(e int) { m.pendEdges[e]++ }

// Pending exposes the live unpublished per-block and per-edge counts.
// Like HitBlock it belongs to the session's driving goroutine: the
// threaded engine's loop fast-forward reads one loop iteration's ticks
// from it and adds their multiple for the iterations it skips.
func (m *Map) Pending() (blocks, edges []uint64) { return m.pendBlocks, m.pendEdges }

// Flush publishes all pending counts into the snapshot-visible bank. It
// must be called from the session's driving goroutine, or from a caller
// that synchronized with it (a quiesced or closed session); the shared
// engine calls it when a session's map folds into a retired bank.
func (m *Map) Flush() {
	for i, v := range m.pendBlocks {
		if v != 0 {
			m.blocks[i].Add(v)
			m.pendBlocks[i] = 0
		}
	}
	for i, v := range m.pendEdges {
		if v != 0 {
			m.edges[i].Add(v)
			m.pendEdges[i] = 0
		}
	}
}

// Snapshot returns a point-in-time copy of the published counters. Safe
// to call concurrently with a live session's increments: it reads only
// the atomic bank, so it may trail the session by the rounds not yet
// flushed — a consistent lower bound, which Merge and the shared-engine
// aggregation tolerate because counters only grow.
func (m *Map) Snapshot() *Snapshot {
	s := &Snapshot{
		Blocks: make([]uint64, len(m.blocks)),
		Edges:  make([]uint64, len(m.edges)),
	}
	for i := range m.blocks {
		s.Blocks[i] = m.blocks[i].Load()
	}
	for i := range m.edges {
		s.Edges[i] = m.edges[i].Load()
	}
	return s
}

// Snapshot is a frozen counter state, mergeable across sessions that
// share the same sealed generation (and therefore the same index spaces).
type Snapshot struct {
	Blocks []uint64 `json:"blocks"`
	Edges  []uint64 `json:"edges"`
}

// AddTo adds the published counters into acc, as acc.Merge(m.Snapshot())
// would without the intermediate copy. Like Snapshot it is safe to call
// concurrently with the session's increments.
func (m *Map) AddTo(acc *Snapshot) {
	acc.grow(len(m.blocks), len(m.edges))
	for i := range m.blocks {
		acc.Blocks[i] += m.blocks[i].Load()
	}
	for i := range m.edges {
		acc.Edges[i] += m.edges[i].Load()
	}
}

// Merge adds o into s element-wise. Both snapshots must come from maps
// sized for the same sealed generation; shorter inputs are tolerated so
// a zero-value snapshot can act as an accumulator.
func (s *Snapshot) Merge(o *Snapshot) {
	if o == nil {
		return
	}
	s.grow(len(o.Blocks), len(o.Edges))
	for i, v := range o.Blocks {
		s.Blocks[i] += v
	}
	for i, v := range o.Edges {
		s.Edges[i] += v
	}
}

// grow extends s with zero counters to at least the given lengths.
func (s *Snapshot) grow(blocks, edges int) {
	if len(s.Blocks) < blocks {
		s.Blocks = append(s.Blocks, make([]uint64, blocks-len(s.Blocks))...)
	}
	if len(s.Edges) < edges {
		s.Edges = append(s.Edges, make([]uint64, edges-len(s.Edges))...)
	}
}

// Clone returns an independent copy of the snapshot.
func (s *Snapshot) Clone() *Snapshot {
	c := &Snapshot{Blocks: make([]uint64, len(s.Blocks)), Edges: make([]uint64, len(s.Edges))}
	copy(c.Blocks, s.Blocks)
	copy(c.Edges, s.Edges)
	return c
}
