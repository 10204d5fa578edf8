package coverage

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestMapSnapshotMergeClone(t *testing.T) {
	m := NewMap(3, 2)
	m.HitBlock(0)
	m.HitBlock(2)
	m.HitBlock(2)
	m.HitEdge(1)
	// Counts are pending until published: a snapshot before any flush is
	// the (empty) lower bound.
	if s := m.Snapshot(); !equal(s.Blocks, []uint64{0, 0, 0}) {
		t.Errorf("pre-flush snapshot = %v, want zeros", s.Blocks)
	}
	m.Flush()
	s := m.Snapshot()
	if want := []uint64{1, 0, 2}; !equal(s.Blocks, want) {
		t.Errorf("blocks = %v, want %v", s.Blocks, want)
	}
	if want := []uint64{0, 1}; !equal(s.Edges, want) {
		t.Errorf("edges = %v, want %v", s.Edges, want)
	}

	// Merge tolerates a zero-value accumulator and shorter inputs.
	var acc Snapshot
	acc.Merge(s)
	acc.Merge(&Snapshot{Blocks: []uint64{5}})
	if want := []uint64{6, 0, 2}; !equal(acc.Blocks, want) {
		t.Errorf("merged blocks = %v, want %v", acc.Blocks, want)
	}

	cl := s.Clone()
	cl.Blocks[0] = 99
	if s.Blocks[0] != 1 {
		t.Error("Clone shares storage with the original")
	}
}

// TestMapConcurrentCounts: the map is single-writer, so concurrency is
// one session goroutine counting (flushing every 64 rounds, as the
// checker does)
// against snapshot readers — under -race this pins the contract that
// readers touch only the atomic bank. Cross-session totals come from
// merging each session's own map.
func TestMapConcurrentCounts(t *testing.T) {
	m := NewMap(4, 4)
	const rounds = 10_000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < rounds; i++ {
			m.HitBlock(i % 4)
			m.HitEdge(3 - i%4)
			if i%64 == 63 {
				m.Flush()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				s := m.Snapshot()
				var sum uint64
				for _, v := range s.Blocks {
					sum += v
				}
				if sum < last {
					t.Errorf("published counts regressed: %d after %d", sum, last)
					return
				}
				last = sum
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	m.Flush()
	s := m.Snapshot()
	for i := 0; i < 4; i++ {
		if s.Blocks[i] != rounds/4 || s.Edges[i] != rounds/4 {
			t.Fatalf("index %d: blocks=%d edges=%d, want %d", i, s.Blocks[i], s.Edges[i], rounds/4)
		}
	}

	// Cross-session aggregation is merge-of-snapshots.
	var acc Snapshot
	for g := 0; g < 4; g++ {
		sm := NewMap(4, 0)
		for i := 0; i < 100; i++ {
			sm.HitBlock(g)
		}
		sm.Flush()
		acc.Merge(sm.Snapshot())
	}
	for i := 0; i < 4; i++ {
		if acc.Blocks[i] != 100 {
			t.Fatalf("merged session counts = %v", acc.Blocks)
		}
	}
}

func twoGenProfiles() (from, to *Profile) {
	from = &Profile{
		Device: "testdev", Generation: 1, Rounds: 10,
		Blocks: []BlockCov{
			{ID: 0, Handler: 0, Block: 0, Kind: "entry", TrainVisits: 4, Hits: 10},
			{ID: 1, Handler: 1, Block: 0, Kind: "cmd-decision", TrainVisits: 4, Hits: 10},
			{ID: 2, Handler: 1, Block: 2, Kind: "normal", TrainVisits: 2, Hits: 5},
		},
		Edges: []EdgeCov{
			{FromHandler: 1, FromBlock: 0, ToHandler: 1, ToBlock: 2, Kind: "case", Sel: 0x10, Hits: 5},
		},
		Commands: []uint64{0x10},
	}
	to = &Profile{
		Device: "testdev", Generation: 2, Rounds: 12,
		Blocks: []BlockCov{
			{ID: 0, Handler: 0, Block: 0, Kind: "entry", TrainVisits: 5, Hits: 12},
			{ID: 1, Handler: 1, Block: 0, Kind: "cmd-decision", TrainVisits: 5, Hits: 12},
			{ID: 2, Handler: 1, Block: 2, Kind: "normal", TrainVisits: 2, Hits: 6},
			{ID: 3, Handler: 1, Block: 4, Kind: "normal", TrainVisits: 1, Hits: 0},
		},
		Edges: []EdgeCov{
			{FromHandler: 1, FromBlock: 0, ToHandler: 1, ToBlock: 2, Kind: "case", Sel: 0x10, Hits: 6},
			{FromHandler: 1, FromBlock: 0, ToHandler: 1, ToBlock: 4, Kind: "case", Sel: 0x31, Hits: 0},
			{FromHandler: 1, FromBlock: 2, ToHandler: 1, ToBlock: 4, Kind: "seq", Hits: 2},
		},
		Commands: []uint64{0x10, 0x31},
	}
	return from, to
}

func TestDiffDrift(t *testing.T) {
	from, to := twoGenProfiles()
	d := Diff(from, to)
	if d.FromGen != 1 || d.ToGen != 2 || d.Device != "testdev" {
		t.Fatalf("identity: %+v", d)
	}
	if len(d.BlocksAdded) != 1 || d.BlocksAdded[0].Block != 4 {
		t.Errorf("BlocksAdded = %+v", d.BlocksAdded)
	}
	if len(d.BlocksRemoved) != 0 || len(d.EdgesRemoved) != 0 {
		t.Errorf("spurious removals: %+v %+v", d.BlocksRemoved, d.EdgesRemoved)
	}
	if len(d.EdgesAdded) != 2 {
		t.Fatalf("EdgesAdded = %+v", d.EdgesAdded)
	}
	if len(d.CommandsAdded) != 1 || d.CommandsAdded[0] != 0x31 {
		t.Errorf("CommandsAdded = %v", d.CommandsAdded)
	}
	// The legalized-but-unexercised case arm is never-hit; so is its block.
	if len(d.NeverHitEdges) != 1 || d.NeverHitEdges[0].Sel != 0x31 {
		t.Errorf("NeverHitEdges = %+v", d.NeverHitEdges)
	}
	if len(d.NeverHitBlocks) != 1 || d.NeverHitBlocks[0].Block != 4 {
		t.Errorf("NeverHitBlocks = %+v", d.NeverHitBlocks)
	}
	// The seq edge is hit under gen 2 and absent from gen 1: newly hot.
	if len(d.NewlyHotEdges) != 1 || d.NewlyHotEdges[0].Kind != "seq" {
		t.Errorf("NewlyHotEdges = %+v", d.NewlyHotEdges)
	}

	// Reverse direction reports the removals symmetrically.
	r := Diff(to, from)
	if len(r.BlocksRemoved) != 1 || len(r.EdgesRemoved) != 2 || len(r.CommandsRemoved) != 1 {
		t.Errorf("reverse diff: %+v", r)
	}

	// A structural-only "to" (no rounds) must not claim runtime gaps.
	to.Rounds = 0
	d0 := Diff(from, to)
	if d0.NeverHitBlocks != nil || d0.NeverHitEdges != nil || d0.NewlyHotEdges != nil {
		t.Errorf("structural-only diff reported runtime fields: %+v", d0)
	}
}

func TestDriftOutputs(t *testing.T) {
	from, to := twoGenProfiles()
	d := Diff(from, to)
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Drift
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("JSON round trip: %v", err)
	}
	if back.ToGen != 2 || len(back.EdgesAdded) != 2 {
		t.Errorf("round-tripped drift: %+v", back)
	}

	buf.Reset()
	if err := d.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	table := buf.String()
	for _, want := range []string{"generation 1 -> 2", "command added", "0x31", "never hit at runtime", "newly hot"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

func equal(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
