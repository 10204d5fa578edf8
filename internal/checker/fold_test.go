package checker_test

import (
	"slices"
	"sync"
	"testing"

	"sedspec"
	"sedspec/internal/checker"
	"sedspec/internal/devices/testdev"
	"sedspec/internal/interp"
	"sedspec/internal/machine"
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

// TestSharedFoldCloseVsRead is the retired-bank fold correctness
// argument: with some sessions closing (folding their counters,
// coverage and audit records into the engine's retired banks) while
// other goroutines concurrently read the aggregates, every aggregate
// read must see each session's contribution exactly once — a quiesced
// session's stats live either in its live bank or in the retired bank,
// so any loss or double-fold shows up as a wrong total. The second half
// repeats the argument for enhancement-mode warnings: sessions holding
// one audited warning each close while readers call Warnings and Audit.
// Run under -race this also proves the fold takes no unlocked shortcuts.
func TestSharedFoldCloseVsRead(t *testing.T) {
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

	foldWarningsCloseVsRead(t, spec, start, att)
}

// foldWarningsCloseVsRead runs 200 trials of eight enhancement-mode
// sessions, each holding one audited warning, closing concurrently while
// two readers call Warnings and Audit. Every read must hold each
// session's record exactly once.
func foldWarningsCloseVsRead(t *testing.T, spec *sedspec.Spec, start *interp.State, att *machine.Attached) {
	const trials, n = 200, 8
	want := make([]int, n)
	for i := range want {
		want[i] = i
	}
	// exactlyOnce reports a read that misses or repeats a session.
	exactlyOnce := func(what string, sessions []int) bool {
		slices.Sort(sessions)
		if !slices.Equal(sessions, want) {
			t.Errorf("%s read holds sessions %v, want each of %v once", what, sessions, want)
			return false
		}
		return true
	}
	for trial := 0; trial < trials && !t.Failed(); trial++ {
		sh := checker.NewShared(spec, checker.WithMode(checker.ModeEnhancement),
			checker.WithEnv(att), checker.WithStream(nil))
		chks := make([]*checker.Checker, n)
		for i := range chks {
			chks[i] = sh.NewSession(start, checker.WithRecorder(nil))
			diag := interp.NewWrite(interp.SpacePIO, testdev.PortCmd, []byte{testdev.CmdDiag})
			if err := chks[i].PreIO(nil, diag); err != nil {
				t.Fatalf("trial %d: diag blocked in enhancement mode: %v", trial, err)
			}
		}
		if !exactlyOnce("pre-close Audit", auditSessions(sh.Audit())) {
			return
		}

		var closing, readers sync.WaitGroup
		closing.Add(1)
		done := make(chan struct{})
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				closing.Wait()
				for {
					ws := sh.Warnings()
					ids := make([]int, len(ws))
					for i := range ws {
						ids[i] = ws[i].Session
					}
					if !exactlyOnce("mid-close Warnings", ids) ||
						!exactlyOnce("mid-close Audit", auditSessions(sh.Audit())) {
						return
					}
					select {
					case <-done:
						return
					default:
					}
				}
			}()
		}
		var closers sync.WaitGroup
		for _, c := range chks {
			closers.Add(1)
			go func(c *checker.Checker) {
				defer closers.Done()
				closing.Wait()
				c.Close()
			}(c)
		}
		closing.Done()
		closers.Wait()
		close(done)
		readers.Wait()
		if sh.Sessions() != 0 || !exactlyOnce("post-close Audit", auditSessions(sh.Audit())) {
			return
		}
	}
}

func auditSessions(recs []checker.AuditRecord) []int {
	ids := make([]int, len(recs))
	for i := range recs {
		ids[i] = recs[i].Session
	}
	return ids
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
