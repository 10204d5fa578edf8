package bench_test

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"sedspec/internal/bench"
	"sedspec/internal/workload"
)

func TestThroughputScalesAcrossSessions(t *testing.T) {
	// One device, small iteration counts: the point is that the harness
	// runs, its invariants hold, and concurrency does not wreck per-op
	// cost. sedbench runs the full ladder over all five devices.
	tgt := workload.TargetByName("fdc", true)
	r, err := bench.NewCheckerReplay(tgt, 40)
	if err != nil {
		t.Fatal(err)
	}
	counts := []int{1, 4}
	rows, err := bench.Throughput(r, 5000, counts)
	if err != nil {
		t.Fatal(err)
	}
	// One row per (session count, delivery path): per-round first, then
	// batched.
	if len(rows) != 2*len(counts) {
		t.Fatalf("rows = %d, want %d", len(rows), 2*len(counts))
	}
	for i, row := range rows {
		wantN := counts[i%len(counts)]
		wantBatched := i >= len(counts)
		if row.Sessions != wantN || row.Device != "fdc" || row.Batched != wantBatched {
			t.Errorf("row %d mislabeled: %+v", i, row)
		}
		if row.Batched && row.BatchSize != bench.DefaultBatchSize {
			t.Errorf("row %d batch size = %d, want %d", i, row.BatchSize, bench.DefaultBatchSize)
		}
		if row.CheckedIOs != uint64(wantN)*5000 {
			t.Errorf("row %d checked %d I/Os, want %d", i, row.CheckedIOs, wantN*5000)
		}
		if row.CPUNsPerIO <= 0 || row.AggPerSec <= 0 {
			t.Errorf("row %d has empty measurement: %+v", i, row)
		}
		wantG := wantN
		if nc := runtime.NumCPU(); wantG > nc {
			wantG = nc
		}
		if row.GoMaxProcs != wantG {
			t.Errorf("row %d gomaxprocs = %d, want pinned %d", i, row.GoMaxProcs, wantG)
		}
	}
	for _, i := range []int{0, len(counts)} {
		if rows[i].ScalingX != 1 {
			t.Errorf("row %d baseline scaling = %f, want 1", i, rows[i].ScalingX)
		}
	}
	// Per-op CPU cost must not blow up under concurrency (the path is
	// lock-free); allow 2x for scheduler and cache noise on small runs.
	// The ratio is the median over interleaved 1-session/4-session chunk
	// pairs of process CPU plus lock-parked time per checked I/O, so a
	// neighbouring process taking a core does not read as contention on
	// the shared engine, while sessions serialized on a lock do.
	ratio, ns1, ns4, err := bench.ScalingRatio(r, 4, 5000, 11)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("median 4-session/1-session cost ratio %.2f (%.0fns vs %.0fns per checked I/O)", ratio, ns4, ns1)
	if ratio > 2 {
		t.Errorf("4-session per-op cost %.0fns vs baseline %.0fns (median pair ratio %.2f): contention on the shared engine",
			ns4, ns1, ratio)
	}

	e2e, err := bench.ThroughputE2E(tgt, r.Spec, 30, counts)
	if err != nil {
		t.Fatal(err)
	}
	if len(e2e) != len(counts) {
		t.Fatalf("e2e rows = %d, want %d", len(e2e), len(counts))
	}
	for i, row := range e2e {
		if row.CheckedIOs == 0 || row.AggPerSec <= 0 {
			t.Errorf("e2e row %d empty: %+v", i, row)
		}
	}

	var buf bytes.Buffer
	if err := bench.WriteThroughputJSON(&buf, rows, e2e); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Benchmark           string `json:"benchmark"`
		Version             int    `json:"version"`
		HostCPUs            int    `json:"host_cpus"`
		DegradedParallelism bool   `json:"degraded_parallelism"`
		Rows                []struct {
			Device     string `json:"device"`
			GoMaxProcs int    `json:"gomaxprocs"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("emitted JSON invalid: %v", err)
	}
	if out.Benchmark != "concurrent_throughput" || out.Version != 2 || out.HostCPUs != runtime.NumCPU() {
		t.Errorf("JSON header wrong: %+v", out)
	}
	if out.DegradedParallelism != bench.DegradedParallelism() {
		t.Errorf("degraded_parallelism = %v, want %v", out.DegradedParallelism, bench.DegradedParallelism())
	}
	if len(out.Rows) != len(rows) {
		t.Errorf("JSON rows = %d, want %d", len(out.Rows), len(rows))
	}
	for i, row := range out.Rows {
		if row.GoMaxProcs == 0 {
			t.Errorf("JSON row %d missing gomaxprocs", i)
		}
	}
}

func TestSessionCountsLadder(t *testing.T) {
	counts := bench.SessionCounts()
	if len(counts) == 0 || counts[0] != 1 {
		t.Fatalf("ladder must start at 1: %v", counts)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] <= counts[i-1] {
			t.Fatalf("ladder not strictly increasing: %v", counts)
		}
	}
	seen := map[int]bool{}
	for _, n := range counts {
		seen[n] = true
	}
	for _, want := range []int{1, 2, 4, 8, runtime.NumCPU()} {
		if !seen[want] {
			t.Errorf("ladder %v missing %d", counts, want)
		}
	}
}
