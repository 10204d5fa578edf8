package bench

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sedspec/internal/checker"
	"sedspec/internal/interp"
)

// This file measures how the cost of one checked I/O changes when one
// sealed specification is shared across N concurrent enforcement
// sessions (checker.Shared). ScalingRatio replays each device's captured
// benign stream through N per-session checkers on N goroutines, the
// check loop alone with no machine or device in the way, and compares
// each checked I/O's cost with one session running alone. Contention on
// the shared engine shows up there as a ratio above 1. It is measured on
// both delivery paths: per round (PreIO) and batched (PreIOBatch windows
// of DefaultBatchSize). Full-stack multi-session load is perfbench's
// guest-io workload.

// DefaultBatchSize is the batched path's delivery window: large enough
// that the per-delivery fixed costs (epoch bracket, arena and journal
// reset, counter and summary publication) are fully amortized — the
// per-round delta is flat from ~16 up — and sized like a full ring sweep
// on the ring/doorbell devices.
const DefaultBatchSize = 64

// pinGOMAXPROCS sets GOMAXPROCS to min(n, host CPUs) and returns the
// pinned value.
func pinGOMAXPROCS(n int) int {
	g := n
	if nc := runtime.NumCPU(); g > nc {
		g = nc
	}
	runtime.GOMAXPROCS(g)
	return g
}

// replayWindow is what runConcurrentReplay measured over its timed
// window.
type replayWindow struct {
	wall time.Duration
	// cpu is the process CPU time used; 0 where the platform has no
	// process CPU clock.
	cpu time.Duration
	// blocked is the time goroutines spent parked on a sync.Mutex,
	// sync.RWMutex or runtime-internal lock, as sampled by the runtime.
	blocked time.Duration
	// mallocs is the heap-allocation delta.
	mallocs uint64
}

// lockWait returns the runtime's running total of time goroutines have
// spent blocked on locks.
func lockWait() time.Duration {
	s := []metrics.Sample{{Name: "/sync/mutex/wait/total:seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return time.Duration(s[0].Value.Float64() * float64(time.Second))
}

// runConcurrentReplay replays iters rounds per session through n
// per-session checkers drawn from one shared engine and measures the
// timed window. batchSize 0 drives each session per round (PreIO, one
// call per request);
// batchSize >= 1 drives it in batched deliveries (PreIOBatch windows,
// capped at the stream wrap so every window sees the control state its
// requests were recorded against). Both loops carry the stream position
// with a compare-based wrap — no per-round modulo on either side. The
// goroutines are spawned (and their sessions warmed) before the clock
// starts, parked on a start barrier, so only steady-state checking is
// inside the measurement.
func runConcurrentReplay(r *CheckerReplay, sh *checker.Shared, n, iters, batchSize int) (replayWindow, error) {
	chks := make([]*checker.Checker, n)
	streams := make([][]*interp.Request, n)
	for i := 0; i < n; i++ {
		chks[i] = sh.NewSession(r.start)
		streams[i] = r.CloneReqs()
	}
	session := func(chk *checker.Checker, reqs []*interp.Request, iters int) error {
		j := 0
		if batchSize <= 0 {
			for k := 0; k < iters; k++ {
				if j == 0 {
					chk.ResyncShadow(r.start)
				}
				if err := chk.PreIO(nil, reqs[j]); err != nil {
					return fmt.Errorf("round %d: %w", k, err)
				}
				if j++; j == len(reqs) {
					j = 0
				}
			}
			return nil
		}
		for k := 0; k < iters; {
			if j == 0 {
				chk.ResyncShadow(r.start)
			}
			w := batchSize
			if rem := len(reqs) - j; w > rem {
				w = rem
			}
			if rem := iters - k; w > rem {
				w = rem
			}
			vs := chk.PreIOBatch(reqs[j : j+w])
			for x := range vs {
				if !vs[x].Checked || vs[x].Err != nil {
					return fmt.Errorf("round %d: checked=%v err=%v", k+x, vs[x].Checked, vs[x].Err)
				}
			}
			k += w
			if j += w; j == len(reqs) {
				j = 0
			}
		}
		return nil
	}
	// Warm every session one full cycle: arenas and verdict buffers grow
	// to steady state here, not inside the timed window.
	for i := 0; i < n; i++ {
		if err := session(chks[i], streams[i], len(streams[i])); err != nil {
			return replayWindow{}, fmt.Errorf("bench: %s warm session %d: %w", r.Target.Name, i, err)
		}
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	var finished atomic.Int32
	var before, after runtime.MemStats
	var t0, t1 time.Time
	var c0, c1, b0, b1 time.Duration
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			chk, reqs := chks[i], streams[i]
			<-start
			if err := session(chk, reqs, iters); err != nil {
				errs[i] = fmt.Errorf("session %d %w", i, err)
			}
			if finished.Add(1) == int32(n) {
				t1 = time.Now()
				c1 = processCPU()
				runtime.ReadMemStats(&after)
				b1 = lockWait()
			}
		}(i)
	}
	// The window opens on its own goroutine, after a GC by which time
	// this one has parked in wg.Wait, and the last session to finish
	// closes it: parking takes a sudog, which allocates whenever the P's
	// sudog cache is empty, so the park must not land inside the counted
	// window.
	wg.Add(1)
	go func() {
		defer wg.Done()
		runtime.GC()
		b0 = lockWait()
		runtime.ReadMemStats(&before)
		c0 = processCPU()
		t0 = time.Now()
		close(start)
	}()
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return replayWindow{}, fmt.Errorf("bench: %s replay: %w", r.Target.Name, err)
		}
	}
	for _, chk := range chks {
		chk.Close()
	}
	st := sh.Stats()
	if st.ParamAnomalies+st.IndirectAnomalies+st.CondAnomalies != 0 {
		return replayWindow{}, fmt.Errorf("bench: %s concurrent replay raised anomalies: %+v", r.Target.Name, st)
	}
	return replayWindow{
		wall:    t1.Sub(t0),
		cpu:     c1 - c0,
		blocked: b1 - b0,
		mallocs: after.Mallocs - before.Mallocs,
	}, nil
}

// ScalingRatio measures how much one checked I/O's cost grows when n
// sessions share one engine instead of one session running alone. It
// times pairs of chunks, one session then n sessions with the order
// alternating from pair to pair, each chunk iters rounds per session on
// a fresh engine with GOMAXPROCS pinned to min(sessions, host CPUs).
// batchSize 0 delivers each round through PreIO; batchSize >= 1 delivers
// PreIOBatch windows of that size. It returns the median of the per-pair
// cost ratios and each side's median ns per checked I/O.
//
// A chunk's cost is the process CPU time inside its timed window plus
// the time its goroutines spent parked on a lock there, per checked
// I/O. Time the host gives to other processes therefore does not count,
// while anything sessions do to each other does: spinning or parking on
// a lock, cache lines bouncing between cores. On a platform without a
// process CPU clock the cost falls back to wall time x cores / rounds.
//
// The check loop must not allocate at steady state: if either side's
// best window allocated, ScalingRatio fails naming the device, session
// count and delivery path.
func ScalingRatio(r *CheckerReplay, n, iters, pairs, batchSize int) (ratio, ns1, nsN float64, err error) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	// chunk times one chunk of the given session count and returns its
	// cost per checked I/O and its heap allocations.
	chunk := func(sessions int) (float64, uint64, error) {
		g := pinGOMAXPROCS(sessions)
		sh := checker.NewShared(r.Spec, checker.WithEnv(r.att))
		w, err := runConcurrentReplay(r, sh, sessions, iters, batchSize)
		if err != nil {
			return 0, 0, err
		}
		rounds := float64(sessions * iters)
		if w.cpu <= 0 {
			return float64(w.wall.Nanoseconds()) * float64(min(sessions, g)) / rounds, w.mallocs, nil
		}
		return float64((w.cpu + w.blocked).Nanoseconds()) / rounds, w.mallocs, nil
	}
	sessions := [2]int{1, n}
	costs := [2][]float64{make([]float64, pairs), make([]float64, pairs)}
	var allocs [2]uint64
	ratios := make([]float64, pairs)
	for i := range ratios {
		for k := range 2 {
			side := (i + k) % 2
			c, m, err := chunk(sessions[side])
			if err != nil {
				return 0, 0, 0, err
			}
			costs[side][i] = c
			if i == 0 || m < allocs[side] {
				allocs[side] = m
			}
		}
		ratios[i] = costs[1][i] / costs[0][i]
	}
	for side, m := range allocs {
		if m != 0 {
			path := "per-round"
			if batchSize > 0 {
				path = fmt.Sprintf("batch=%d", batchSize)
			}
			return 0, 0, 0, fmt.Errorf("bench: %s x%d %s: check loop allocates at steady state: "+
				"%d allocs in the best of %d windows of %d rounds; the enforcement hot path must be allocation-free",
				r.Target.Name, sessions[side], path, m, pairs, sessions[side]*iters)
		}
	}
	return medianOf(ratios), medianOf(costs[0]), medianOf(costs[1]), nil
}

// medianOf returns the middle element of xs (sorted in place).
func medianOf(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}
