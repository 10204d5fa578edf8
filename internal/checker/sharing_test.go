package checker_test

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sedspec/internal/bench"
	"sedspec/internal/checker"
	"sedspec/internal/interp"
	"sedspec/internal/workload"
)

// What one sealed spec costs N sessions. A clean round may write only
// its own session's memory (shadow, arenas, counters, recorder and
// coverage banks, publishes included) and read the engine's current
// version; TestSharedCleanRoundsShareNothing proves that exactly, and
// TestThroughputScalesAcrossSessions keeps a coarse wall-clock bound
// beside it.

// shareDeadline bounds a window of clean rounds while the test holds the
// engine's locks: rounds that wait on one of them never finish.
const shareDeadline = 5 * time.Second

// replaySession runs rounds clean rounds of the captured stream through
// chk from stream position i, per round (batch 0) or in PreIOBatch
// windows of batch requests, and returns the position it stopped at.
func replaySession(r *bench.CheckerReplay, chk *checker.Checker, reqs []*interp.Request, i, rounds, batch int) (int, error) {
	for end := i + rounds; i < end; {
		if batch == 0 {
			if err := r.StepStream(chk, reqs, i); err != nil {
				return i, fmt.Errorf("round %d: %w", i, err)
			}
			i++
			continue
		}
		n, err := r.StepBatch(chk, reqs, i, min(batch, end-i))
		i += n
		if err != nil {
			return i, err
		}
	}
	return i, nil
}

// sessionCounts is 1, 2, 4 and the host's CPU count, each once.
func sessionCounts() []int {
	counts := []int{1, 2, 4, runtime.NumCPU()}
	slices.Sort(counts)
	return slices.Compact(counts)
}

// TestSharedCleanRoundsShareNothing opens 1, 2, 4 and NumCPU sessions of
// one engine on each device's captured benign stream and runs four
// publish intervals of clean rounds per session, per round and batched,
// all sessions at once. Three facts must hold exactly over that window:
// every engine-owned field of the Shared is unchanged; the rounds finish
// while the test holds the engine's mu and swapMu and every session's
// warnMu, so the clean path takes none of them; and the process
// allocates nothing.
func TestSharedCleanRoundsShareNothing(t *testing.T) {
	for _, target := range workload.Targets(true) {
		r, err := bench.NewCheckerReplay(target, 40)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range sessionCounts() {
			for _, batch := range []int{0, checker.PublishInterval} {
				path := "per-round"
				if batch > 0 {
					path = fmt.Sprintf("batch=%d", batch)
				}
				t.Run(fmt.Sprintf("%s/x%d/%s", target.Name, n, path), func(t *testing.T) {
					cleanRoundsShareNothing(t, r, n, batch)
				})
			}
		}
	}
}

// shareWindows is how many windows an allocation count may take. The
// count is process-wide, so it also sees the runtime's own allocations:
// a new OS thread's m and g0, the unique-map cleanup that follows a GC,
// a contended stop-the-world's sudog. A check path that allocates does
// so in every window.
const shareWindows = 3

func cleanRoundsShareNothing(t *testing.T, r *bench.CheckerReplay, n, batch int) {
	sh, chks := r.NewShared(n)
	defer func() {
		for _, c := range chks {
			c.Close()
		}
	}()
	// Warm each session one full stream cycle, so arenas, verdict
	// buffers and loop scratch reach steady state before any window.
	pos := make([]int, n)
	reqs := make([][]*interp.Request, n)
	for i, c := range chks {
		reqs[i] = r.CloneReqs()
		p, err := replaySession(r, c, reqs[i], 0, len(reqs[i]), batch)
		if err != nil {
			t.Fatalf("warm session %d: %v", i, err)
		}
		pos[i] = p
	}
	var mallocs uint64
	for w := 0; w < shareWindows; w++ {
		if mallocs = cleanWindow(t, r, sh, chks, reqs, pos, batch); mallocs == 0 {
			break
		}
		t.Logf("window %d: %d allocations", w+1, mallocs)
	}
	if mallocs != 0 {
		t.Errorf("%d sessions' clean rounds allocated in each of %d windows, %d times in the last; want 0",
			n, shareWindows, mallocs)
	}
	if st := sh.Stats(); st.ParamAnomalies+st.IndirectAnomalies+st.CondAnomalies != 0 {
		t.Errorf("captured stream raised anomalies: %+v", st)
	}
}

// cleanWindow runs four publish intervals of clean rounds on every
// session at once while the test holds the engine's locks, fails the
// test unless they finish and leave the engine-owned state as it was,
// and returns the process's heap allocations over the window.
func cleanWindow(t *testing.T, r *bench.CheckerReplay, sh *checker.Shared, chks []*checker.Checker,
	reqs [][]*interp.Request, pos []int, batch int) uint64 {
	const rounds = 4 * checker.PublishInterval
	n := len(chks)
	// Nothing parks inside the counted window: a goroutine that parks
	// takes a sudog, which allocates when its P's cache is empty. The
	// sessions and this goroutine spin on atomics instead, and the last
	// session to finish closes the window.
	var open, closed atomic.Bool
	var finished atomic.Int32
	var before, after runtime.MemStats
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, c := range chks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !open.Load() {
				runtime.Gosched()
			}
			p, err := replaySession(r, c, reqs[i], pos[i], rounds, batch)
			pos[i] = p
			if err != nil {
				errs[i] = fmt.Errorf("session %d: %w", i, err)
			}
			if finished.Add(1) == int32(n) {
				runtime.ReadMemStats(&after)
				closed.Store(true)
			}
		}()
	}

	unlock := sh.LockEngine()
	engine := sh.EngineState()
	// A finished GC cycle, and a moment for the work that follows one
	// (sweeping, the unique-map cleanup) to run outside the window.
	runtime.GC()
	time.Sleep(time.Millisecond)
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	open.Store(true)
	for !closed.Load() && time.Since(t0) < shareDeadline {
		runtime.Gosched()
	}
	timedOut := !closed.Load()
	later := sh.EngineState()
	unlock()
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if timedOut {
		t.Fatalf("%d sessions' %d clean rounds did not finish within %v while the test held the engine's locks: the clean path takes a lock",
			n, rounds, shareDeadline)
	}
	// Sessions and Cur compare by identity first, so DeepEqual never
	// walks a live session.
	if !slices.Equal(later.Sessions, engine.Sessions) || later.Cur != engine.Cur || !reflect.DeepEqual(later, engine) {
		t.Fatalf("clean rounds wrote engine-owned state:\n before %+v\n after  %+v", engine, later)
	}
	return after.Mallocs - before.Mallocs
}

// TestThroughputScalesAcrossSessions bounds the wall-clock cost of one
// checked I/O with 4 sessions on one engine at twice one session's. It
// times interleaved 1-session and 4-session chunks with GOMAXPROCS at
// min(4, NumCPU), keeps each kind's fastest chunk, and reads the
// 4-session cost as core time per I/O: wall time x GOMAXPROCS over the
// rounds of all four sessions.
//
// Four goroutines on this host cost each other more than one alone, with
// or without an engine between them: another package's test binary can
// hold a core through every chunk under go test ./..., which alone reads
// as 2x, and two vCPUs may be one core's hyperthreads. So the same pairs
// also time four sessions each on its own engine, and the bound is on
// the shared sessions' 4-vs-1 ratio over theirs: what sessions of one
// engine cost each other beyond what four sessions that share nothing do.
func TestThroughputScalesAcrossSessions(t *testing.T) {
	const iters, pairs = 500, 81
	r, err := bench.NewCheckerReplay(workload.TargetByName("fdc", true), 40)
	if err != nil {
		t.Fatal(err)
	}
	g := min(4, runtime.NumCPU())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(g))

	// chunk times iters rounds per session through n fresh sessions,
	// all of one engine or each of its own, warmed one stream cycle
	// before the clock starts.
	chunk := func(n int, shared bool) time.Duration {
		var chks []*checker.Checker
		if shared {
			_, chks = r.NewShared(n)
		} else {
			for range n {
				_, c := r.NewShared(1)
				chks = append(chks, c...)
			}
		}
		pos := make([]int, n)
		reqs := make([][]*interp.Request, n)
		for i, c := range chks {
			reqs[i] = r.CloneReqs()
			p, err := replaySession(r, c, reqs[i], 0, len(reqs[i]), 0)
			if err != nil {
				t.Fatalf("warm session %d: %v", i, err)
			}
			pos[i] = p
		}
		// Every goroutine reaches the start barrier before the clock
		// starts.
		start := make(chan struct{})
		var ready, wg sync.WaitGroup
		ready.Add(n)
		wg.Add(n)
		errs := make([]error, n)
		for i, c := range chks {
			go func() {
				defer wg.Done()
				ready.Done()
				<-start
				_, errs[i] = replaySession(r, c, reqs[i], pos[i], iters, 0)
			}()
		}
		ready.Wait()
		t0 := time.Now()
		close(start)
		wg.Wait()
		wall := time.Since(t0)
		for _, c := range chks {
			c.Close()
		}
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		return wall
	}

	// best: one session, four on one engine, four on their own engines.
	// Each pair runs the three chunks in a rotated order.
	var best [3]time.Duration
	for i := 0; i < pairs; i++ {
		for k := range 3 {
			c := (i + k) % 3
			w := chunk(min(4, 1+3*c), c == 1)
			if best[c] == 0 || w < best[c] {
				best[c] = w
			}
		}
	}
	ns1 := float64(best[0].Nanoseconds()) / iters
	perIO4 := func(w time.Duration) float64 { return float64(w.Nanoseconds()) * float64(g) / (4 * iters) }
	shared, own := perIO4(best[1])/ns1, perIO4(best[2])/ns1
	// ns1 cancels: the bound is the wall time of four sessions on one
	// engine over four on their own; the 4-vs-1 ratios are logged.
	ratio := shared / own
	t.Logf("4-session/1-session cost ratio %.2f on one engine, %.2f on four: %.2f (%.0fns per checked I/O alone, GOMAXPROCS %d)",
		shared, own, ratio, ns1, g)
	if ratio > 2 {
		t.Errorf("4 sessions on one engine cost %.2fx one session per I/O, %.2fx on their own engines (ratio %.2f): contention on the shared engine",
			shared, own, ratio)
	}
}
