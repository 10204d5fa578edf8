package bench_test

import (
	"testing"

	"sedspec/internal/bench"
	"sedspec/internal/workload"
)

func TestThroughputScalesAcrossSessions(t *testing.T) {
	// One device, small iteration counts: the point is that concurrency
	// does not wreck per-op cost. sedbench runs the curve over all five
	// devices.
	r, err := bench.NewCheckerReplay(workload.TargetByName("fdc", true), 40)
	if err != nil {
		t.Fatal(err)
	}
	// Per-op CPU cost must not blow up under concurrency (the path is
	// lock-free); allow 2x for scheduler and cache noise on small runs.
	// The ratio is the median over interleaved 1-session/4-session chunk
	// pairs of process CPU plus lock-parked time per checked I/O, so a
	// neighbouring process taking a core does not read as contention on
	// the shared engine, while sessions serialized on a lock do.
	ratio, ns1, ns4, err := bench.ScalingRatio(r, 4, 5000, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("median 4-session/1-session cost ratio %.2f (%.0fns vs %.0fns per checked I/O)", ratio, ns4, ns1)
	if ratio > 2 {
		t.Errorf("4-session per-op cost %.0fns vs baseline %.0fns (median pair ratio %.2f): contention on the shared engine",
			ns4, ns1, ratio)
	}

	// The batched path runs through the same allocation gate: a window
	// that allocates on either side fails ScalingRatio.
	ratio, ns1, ns4, err = bench.ScalingRatio(r, 4, 5000, 11, bench.DefaultBatchSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("batch=%d: median 4-session/1-session cost ratio %.2f (%.0fns vs %.0fns per checked I/O)",
		bench.DefaultBatchSize, ratio, ns4, ns1)
}
