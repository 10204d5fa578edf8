package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"sedspec"
	"sedspec/internal/checker"
	"sedspec/internal/core"
	"sedspec/internal/specstore"
	"sedspec/internal/workload"
)

// SwapBenchRow is one device's spec lifecycle measurement: what a fresh
// learn costs against a store cache hit, and what continuous hot-swapping
// costs the per-I/O check path.
type SwapBenchRow struct {
	Device   string `json:"device"`
	Requests int    `json:"requests"` // captured stream length
	Iters    int    `json:"iters"`    // timed replay rounds per phase

	// Store cache hit vs relearn.
	LearnNs      int64   `json:"learn_ns"`      // full training run + spec construction
	StoreLoadNs  int64   `json:"store_load_ns"` // Lookup + blob read + DecodeBinary
	CacheSpeedup float64 `json:"cache_speedup_x"`

	// Per-I/O check cost with and without a concurrent swapper.
	SteadyNsPerOp    float64 `json:"steady_ns_per_op"`
	UnderSwapNsPerOp float64 `json:"under_swap_ns_per_op"`
	SwapCostRatio    float64 `json:"swap_cost_ratio"` // under-swap / steady

	// Swap latency: publication plus grace period, averaged over every
	// swap applied while the session was replaying.
	Swaps         uint64  `json:"swaps"`
	SwapLatencyNs float64 `json:"swap_latency_ns"`
}

// SwapBench measures the spec lifecycle for one target: (1) a fresh learn
// against a store cache hit of the same spec, (2) the sealed per-I/O
// check cost in steady state against the same replay with another
// goroutine hot-swapping two equivalent spec versions as fast as the
// grace period allows.
func SwapBench(t *workload.Target, storeDir string, ops, iters int) (*SwapBenchRow, error) {
	// Fresh learn, timed.
	_, att := setup(t)
	t0 := time.Now()
	spec, err := learn(t, att)
	if err != nil {
		return nil, err
	}
	learnNs := time.Since(t0).Nanoseconds()

	// Publish, then time the cache-hit path (best of three: the store is
	// warm in any deployment that benefits from it).
	st, err := specstore.Open(storeDir)
	if err != nil {
		return nil, err
	}
	key := sedspec.StoreKey(att, "bench-"+t.Name)
	if _, err := st.Put(spec, specstore.VersionMeta{
		ProgramHash: key.ProgramHash, CorpusHash: key.CorpusHash, CreatedBy: "learn",
	}); err != nil {
		return nil, err
	}
	prog := att.Dev().Program()
	loadNs := int64(1<<62 - 1)
	for trial := 0; trial < 3; trial++ {
		t1 := time.Now()
		vm, ok := st.Lookup(key)
		if !ok {
			return nil, fmt.Errorf("bench: swap %s: published version not found", t.Name)
		}
		if _, err := st.Load(prog, vm); err != nil {
			return nil, err
		}
		if d := time.Since(t1).Nanoseconds(); d < loadNs {
			loadNs = d
		}
	}

	// Replay harness plus an equivalent second version for the swapper.
	r, err := NewCheckerReplay(t, ops)
	if err != nil {
		return nil, err
	}
	data, err := r.Spec.EncodeBinary()
	if err != nil {
		return nil, err
	}
	specB, err := core.DecodeBinary(r.Spec.Program(), data)
	if err != nil {
		return nil, err
	}

	// One session per phase: a captured stream is only anomaly-free when
	// replayed contiguously (request j expects the state requests 0..j-1
	// built), so the steady and under-swap phases each need their own
	// session walking its own contiguous pass.
	sh := checker.NewShared(r.Spec, checker.WithEnv(r.att))
	chkSteady := sh.NewSession(r.start)
	chkSwap := sh.NewSession(r.start)
	for i := 0; i < 2*len(r.Reqs); i++ { // warm both to steady state
		if err := r.Step(chkSteady, i); err != nil {
			return nil, err
		}
		if err := r.Step(chkSwap, i); err != nil {
			return nil, err
		}
	}
	if iters < 1 {
		iters = 1
	}

	// Interleaved steady/under-swap chunk pairs, so machine noise hits
	// both phases alike. Within the under-swap chunk the spec is
	// republished every swapStride rounds, so successive rounds keep
	// adopting freshly swapped versions. Swaps are injected at round
	// boundaries from this goroutine rather than raced from a background
	// one: on a single-core runner a concurrent swapper only gets the CPU
	// on preemption quanta, so its "latency" measures scheduler
	// time-slicing, while boundary injection drives the same publication
	// and adoption path deterministically on any machine (the -race suite
	// covers the truly concurrent case). Both phases time replay spans of
	// identical length; time spent inside Swap itself is reported
	// separately as SwapLatencyNs.
	const (
		pairs      = 8
		swapStride = 128
	)
	chunk := iters / pairs
	if chunk < 1 {
		chunk = 1
	}
	specs := [2]*core.Spec{specB, r.Spec}
	var steadyNs, swapNs, swapBusy time.Duration
	var swaps uint64
	span := func(chk *checker.Checker, from, n int) (time.Duration, error) {
		t2 := time.Now()
		for i := from; i < from+n; i++ {
			if err := r.Step(chk, i); err != nil {
				return 0, err
			}
		}
		return time.Since(t2), nil
	}
	done := 0
	runtime.GC()
	for done < iters {
		n := chunk
		if iters-done < n {
			n = iters - done
		}
		for off := 0; off < n; off += swapStride {
			k := swapStride
			if n-off < k {
				k = n - off
			}
			d, err := span(chkSteady, done+off, k)
			if err != nil {
				return nil, err
			}
			steadyNs += d
		}
		for off := 0; off < n; off += swapStride {
			k := swapStride
			if n-off < k {
				k = n - off
			}
			d, err := span(chkSwap, done+off, k)
			if err != nil {
				return nil, err
			}
			swapNs += d
			t3 := time.Now()
			if err := sh.Swap(specs[swaps%2]); err != nil {
				return nil, fmt.Errorf("bench: swap %s: %w", t.Name, err)
			}
			swapBusy += time.Since(t3)
			swaps++
		}
		done += n
	}

	steady := float64(steadyNs.Nanoseconds()) / float64(iters)
	under := float64(swapNs.Nanoseconds()) / float64(iters)
	row := &SwapBenchRow{
		Device:           t.Name,
		Requests:         len(r.Reqs),
		Iters:            iters,
		LearnNs:          learnNs,
		StoreLoadNs:      loadNs,
		CacheSpeedup:     float64(learnNs) / float64(loadNs),
		SteadyNsPerOp:    steady,
		UnderSwapNsPerOp: under,
		SwapCostRatio:    under / steady,
		Swaps:            swaps,
	}
	if swaps > 0 {
		row.SwapLatencyNs = float64(swapBusy.Nanoseconds()) / float64(swaps)
	}
	return row, nil
}

// WriteSwapJSON emits the swap experiment rows as indented JSON
// (BENCH_swap.json).
func WriteSwapJSON(w io.Writer, rows []*SwapBenchRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Benchmark string          `json:"benchmark"`
		Rows      []*SwapBenchRow `json:"rows"`
	}{Benchmark: "spec_swap", Rows: rows})
}
