package checker_test

import (
	"sync"
	"testing"

	"sedspec/internal/checker"
	"sedspec/internal/interp"
)

// cloneStream deep-copies a request stream (requests carry mutable
// cursors, so concurrent sessions must not share one).
func cloneStream(reqs []*interp.Request) []*interp.Request {
	out := make([]*interp.Request, len(reqs))
	for i, req := range reqs {
		cl := &interp.Request{Space: req.Space, Addr: req.Addr, Write: req.Write}
		if len(req.Data) > 0 {
			cl.Data = append([]byte(nil), req.Data...)
		}
		out[i] = cl
	}
	return out
}

// TestShardedFoldCloseVsRead is the retired-bank fold correctness
// argument under sharding: with sessions spread across every shard, some
// closing (folding their counters into their shard's retired bank) while
// other goroutines concurrently read Shared.Stats and CoverageSnapshots,
// every aggregate read must see each session's counts exactly once —
// quiesced sessions' stats live either in their live bank or in the
// shard's retired bank, so any loss or double-fold shows up as a wrong
// total. Run under -race this also proves the fold takes no unlocked
// shortcuts.
func TestShardedFoldCloseVsRead(t *testing.T) {
	spec, reqs, start, att := benignStream(t)

	// Serial baseline: one session's worth of counters and coverage.
	base := checker.NewShared(spec, checker.WithEnv(att))
	bc := base.NewSession(start)
	for _, req := range cloneStream(reqs) {
		if err := bc.PreIO(nil, req); err != nil {
			t.Fatalf("baseline: %v", err)
		}
	}
	bc.Close()
	baseline := base.Stats()
	baseCov := base.CoverageSnapshots()[1]
	if baseline.Rounds == 0 || baseCov == nil {
		t.Fatalf("degenerate baseline: %+v cov=%v", baseline, baseCov)
	}

	const n = 16
	sh := checker.NewShared(spec, checker.WithEnv(att))
	chks := make([]*checker.Checker, n)
	for i := range chks {
		chks[i] = sh.NewSession(start)
	}
	// Drive every session to completion concurrently; even sessions use
	// the batched path, odd the per-round path — identical counters.
	var drive sync.WaitGroup
	for i, chk := range chks {
		drive.Add(1)
		go func(i int, chk *checker.Checker) {
			defer drive.Done()
			stream := cloneStream(reqs)
			if i%2 == 0 {
				for j := 0; j < len(stream); j += 5 {
					end := j + 5
					if end > len(stream) {
						end = len(stream)
					}
					for _, v := range chk.PreIOBatch(stream[j:end]) {
						if v.Err != nil {
							t.Errorf("session %d: %v", i, v.Err)
						}
					}
				}
			} else {
				for _, req := range stream {
					if err := chk.PreIO(nil, req); err != nil {
						t.Errorf("session %d: %v", i, err)
					}
				}
			}
		}(i, chk)
	}
	drive.Wait()

	want := checker.Stats{}
	for i := 0; i < n; i++ {
		want = statsSum(want, baseline)
	}
	if got := sh.Stats(); got != want {
		t.Fatalf("pre-close aggregate:\n  got:  %+v\n  want: %+v", got, want)
	}
	wantBlocks := uint64(0)
	for _, v := range baseCov.Blocks {
		wantBlocks += v
	}
	wantBlocks *= n

	// Close half the sessions from several goroutines while readers
	// hammer the aggregates. Every Stats read during the churn must
	// equal the full total exactly; coverage reads are a lower bound
	// while live sessions hold unpublished pending counts, and exact
	// after every fold.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := sh.Stats(); got != want {
					t.Errorf("mid-close aggregate:\n  got:  %+v\n  want: %+v", got, want)
					return
				}
				snap := sh.CoverageSnapshots()[1]
				if snap == nil {
					t.Error("mid-close coverage snapshot missing generation 1")
					return
				}
				var blocks uint64
				for _, v := range snap.Blocks {
					blocks += v
				}
				if blocks > wantBlocks {
					t.Errorf("mid-close coverage over-counts: %d > %d", blocks, wantBlocks)
					return
				}
			}
		}()
	}
	var closers sync.WaitGroup
	for i := 0; i < n; i += 2 {
		closers.Add(1)
		go func(chk *checker.Checker) {
			defer closers.Done()
			chk.Close()
		}(chks[i])
	}
	closers.Wait()
	close(stop)
	readers.Wait()

	if got := sh.Stats(); got != want {
		t.Errorf("post-close aggregate:\n  got:  %+v\n  want: %+v", got, want)
	}
	if got := sh.Sessions(); got != n/2 {
		t.Errorf("open sessions = %d, want %d", got, n/2)
	}
	for i := 1; i < n; i += 2 {
		chks[i].Close()
	}
	if got := sh.Stats(); got != want {
		t.Errorf("final aggregate:\n  got:  %+v\n  want: %+v", got, want)
	}
	snap := sh.CoverageSnapshots()[1]
	var blocks uint64
	for _, v := range snap.Blocks {
		blocks += v
	}
	if blocks != wantBlocks {
		t.Errorf("final coverage blocks = %d, want %d (lost or double-folded)", blocks, wantBlocks)
	}
}

func statsSum(a, b checker.Stats) checker.Stats {
	return checker.Stats{
		Rounds:             a.Rounds + b.Rounds,
		ParamAnomalies:     a.ParamAnomalies + b.ParamAnomalies,
		IndirectAnomalies:  a.IndirectAnomalies + b.IndirectAnomalies,
		CondAnomalies:      a.CondAnomalies + b.CondAnomalies,
		Blocked:            a.Blocked + b.Blocked,
		Warnings:           a.Warnings + b.Warnings,
		Resyncs:            a.Resyncs + b.Resyncs,
		StepsSimulated:     a.StepsSimulated + b.StepsSimulated,
		SyncPointsResolved: a.SyncPointsResolved + b.SyncPointsResolved,
		WarningsDropped:    a.WarningsDropped + b.WarningsDropped,
	}
}
