package obs

import (
	"encoding/json"
	"testing"
)

// TestRingWrapAtExactCapacity pins the wraparound boundary: a ring
// filled to exactly its capacity holds every event unoverwritten, and
// one more append evicts precisely the oldest.
func TestRingWrapAtExactCapacity(t *testing.T) {
	const capacity = 8
	g := NewRegistry()
	r := g.NewRecorder("", "dev", 0, capacity)
	for i := 1; i <= capacity; i++ {
		record(r, Event{Round: uint64(i), Tick: int64(i)})
	}
	ring := r.Ring()
	if ring.Len() != capacity || ring.Total() != capacity {
		t.Fatalf("at exact capacity: Len=%d Total=%d, want %d/%d",
			ring.Len(), ring.Total(), capacity, capacity)
	}
	snap := ring.Snapshot()
	if snap[0].Round != 1 || snap[capacity-1].Round != capacity {
		t.Errorf("exact-capacity snapshot = rounds %d..%d, want 1..%d",
			snap[0].Round, snap[capacity-1].Round, capacity)
	}

	// Capacity+1: the oldest event (round 1) is gone, order intact.
	record(r, Event{Round: capacity + 1, Tick: capacity + 1})
	if ring.Len() != capacity || ring.Total() != capacity+1 {
		t.Fatalf("at capacity+1: Len=%d Total=%d, want %d/%d",
			ring.Len(), ring.Total(), capacity, capacity+1)
	}
	snap = ring.Snapshot()
	if snap[0].Round != 2 || snap[capacity-1].Round != capacity+1 {
		t.Errorf("capacity+1 snapshot = rounds %d..%d, want 2..%d",
			snap[0].Round, snap[capacity-1].Round, capacity+1)
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Round != snap[i-1].Round+1 {
			t.Errorf("snapshot not in order at %d: %d after %d", i, snap[i].Round, snap[i-1].Round)
		}
	}
}

// fillDeterministic records the same event mix into a fresh registry.
func fillDeterministic() *Registry {
	g := NewRegistry()
	a := g.NewRecorder("", "fdc", 0, 8)
	b := g.NewRecorder("", "scsi", 1, 8)
	// Steps 1,2,4,8,16 land one per histogram bucket; the two anomalies
	// walked no steps.
	for i := 0; i < 5; i++ {
		record(a, Event{Steps: uint32(1) << i, Tick: int64(i), Verdict: VerdictOK})
	}
	record(a, Event{Tick: 5, Strategy: 1, Verdict: VerdictBlocked})
	record(a, Event{Tick: 5, Strategy: 3, Verdict: VerdictWarned})
	record(b, Event{Steps: 300, Tick: 70_000, Verdict: VerdictOK})
	return g
}

// registryJSON is the registry's JSON export: its snapshot marshalled.
func registryJSON(t *testing.T, g *Registry) string {
	t.Helper()
	b, err := json.Marshal(g.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRegistryStringDeterministic: the JSON export of two registries
// holding identical data is byte-for-byte identical, and histogram
// buckets are emitted in ascending value order — the contract golden
// tests and CI diffs rely on.
func TestRegistryStringDeterministic(t *testing.T) {
	s1, s2 := registryJSON(t, fillDeterministic()), registryJSON(t, fillDeterministic())
	if s1 != s2 {
		t.Fatalf("export not deterministic:\n%s\nvs\n%s", s1, s2)
	}

	var doc struct {
		Devices []struct {
			Device string `json:"device"`
			Steps  struct {
				Buckets []struct {
					Range string `json:"range"`
					Count uint64 `json:"count"`
				} `json:"buckets"`
			} `json:"steps"`
			Outcomes []struct {
				Strategy string `json:"strategy"`
				Verdict  string `json:"verdict"`
				Count    uint64 `json:"count"`
			} `json:"outcomes"`
		} `json:"devices"`
	}
	if err := json.Unmarshal([]byte(s1), &doc); err != nil {
		t.Fatalf("export is not JSON: %v\n%s", err, s1)
	}
	if len(doc.Devices) != 2 || doc.Devices[0].Device != "fdc" || doc.Devices[1].Device != "scsi" {
		t.Fatalf("device rows unsorted: %+v", doc.Devices)
	}
	steps := doc.Devices[0].Steps.Buckets
	// Ascending bucket-index order means each bucket's lower bound grows:
	// the two zero-step anomaly rounds land in "0", the benign rounds'
	// steps (1,2,4,8,16) fill the next five buckets in value order.
	want := []string{"0", "1", "2-3", "4-7", "8-15", "16-31"}
	if len(steps) != len(want) {
		t.Fatalf("fdc steps buckets = %+v, want %d", steps, len(want))
	}
	for i, b := range steps {
		if b.Range != want[i] {
			t.Errorf("steps bucket %d = %q, want %q", i, b.Range, want[i])
		}
	}
	out := doc.Devices[0].Outcomes
	if len(out) != 3 {
		t.Fatalf("fdc outcomes = %+v", out)
	}
	if out[0].Strategy != StrategyName(0) || out[1].Strategy != StrategyName(1) ||
		out[2].Strategy != StrategyName(3) {
		t.Errorf("outcomes not in strategy order: %+v", out)
	}
}
