package checker_test

import (
	"sync"
	"testing"

	"sedspec"
	"sedspec/internal/checker"
	"sedspec/internal/devices/testdev"
	"sedspec/internal/interp"
	"sedspec/internal/machine"
	"sedspec/internal/obs"
	"sedspec/internal/obs/coverage"
)

// publishEvery is the session publication cadence the aggregates may
// trail by: a live session's registry row and coverage counts reach the
// shared banks every 64 checked rounds.
const publishEvery = 64

// cadenceEngine is one shared engine with its own registry and one
// session, so the registry row and the coverage aggregate are that
// session's published counts.
type cadenceEngine struct {
	sh    *checker.Shared
	sess  *checker.Checker
	entry int
}

func newCadenceEngine(spec *sedspec.Spec, start *interp.State, att *machine.Attached, opts ...checker.Option) *cadenceEngine {
	sh := checker.NewShared(spec, append([]checker.Option{checker.WithObs(obs.NewRegistry()), checker.WithEnv(att)}, opts...)...)
	return &cadenceEngine{sh: sh, sess: sh.NewSession(start), entry: sh.Sealed().Entry}
}

// row reads the engine's registry row, as a reader on any goroutine may.
func (e *cadenceEngine) row() obs.MetricsSnapshot { return e.sh.Metrics() }

// cov reads generation gen's aggregate coverage (nil when absent).
func (e *cadenceEngine) cov(gen uint64) *coverage.Snapshot { return e.sh.CoverageSnapshots()[gen] }

// entryHits is the published round count coverage reports for gen: each
// checked round enters the entry block once.
func (e *cadenceEngine) entryHits(gen uint64) uint64 {
	if s := e.cov(gen); s != nil && e.entry < len(s.Blocks) {
		return s.Blocks[e.entry]
	}
	return 0
}

// repeatStream returns n back-to-back copies of the benign stream. The
// capture starts from the state a benign run leaves behind, so the copies
// replay contiguously without anomalies.
func repeatStream(reqs []*interp.Request, n int) []*interp.Request {
	var out []*interp.Request
	for i := 0; i < n; i++ {
		out = append(out, cloneStream(reqs)...)
	}
	return out
}

// TestPublicationCadence pins the session's one publication schedule: the
// flight recorder's histograms and the coverage map publish together,
// every 64 rounds on the per-round and the batched path alike, and
// exactly at an anomaly round, an adoption and Close. Stats stay exact
// throughout. Run under -race it also proves live readers touch only
// published state.
func TestPublicationCadence(t *testing.T) {
	spec, reqs, start, att := benignStream(t)
	engine := func(opts ...checker.Option) *cadenceEngine { return newCadenceEngine(spec, start, att, opts...) }
	stream := repeatStream(reqs, 6)
	if len(stream) < 3*publishEvery {
		t.Fatalf("stream of %d rounds too short to cross the cadence", len(stream))
	}

	t.Run("per-round-matches-batched", func(t *testing.T) {
		round, batch := engine(), engine()
		seqStream, batchStream := cloneStream(stream), cloneStream(stream)
		for i, size := 0, 1; i < len(stream); i, size = i+size, size%9+1 {
			end := min(i+size, len(stream))
			for _, req := range seqStream[i:end] {
				if err := round.sess.PreIO(nil, req); err != nil {
					t.Fatalf("round %d: %v", i, err)
				}
			}
			for k, v := range batch.sess.PreIOBatch(batchStream[i:end]) {
				if !v.Checked || v.Err != nil {
					t.Fatalf("batched round %d: verdict %+v", i+k, v)
				}
			}
			n := uint64(end)
			if a, b := round.sh.Stats(), batch.sh.Stats(); a.Rounds != n || a != b {
				t.Fatalf("after %d rounds: stats not exact:\n  per-round: %+v\n  batched:   %+v", n, a, b)
			}
			ra, rb := round.row(), batch.row()
			if ra != rb {
				t.Fatalf("after %d rounds: registry rows differ:\n  per-round: %+v\n  batched:   %+v", n, ra, rb)
			}
			if ca, cb := round.cov(1), batch.cov(1); !sameCounts(ca, cb) {
				t.Fatalf("after %d rounds: coverage differs:\n  per-round: %+v\n  batched:   %+v", n, ca, cb)
			}
			if ra.Rounds > n || n-ra.Rounds > publishEvery {
				t.Fatalf("after %d rounds: registry publishes %d, want within %d", n, ra.Rounds, publishEvery)
			}
			if hits := round.entryHits(1); hits != ra.Rounds {
				t.Fatalf("after %d rounds: coverage published %d rounds, recorder %d: not published together",
					n, hits, ra.Rounds)
			}
		}
	})

	t.Run("live-reader-trails", func(t *testing.T) {
		e := engine()
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				before := e.sh.Stats().Rounds
				rows, hits := e.row().Rounds, e.entryHits(1)
				after := e.sh.Stats().Rounds
				// Stats counts a round as it starts; a published count
				// never runs ahead of it nor trails it by more than the
				// cadence plus the round in flight.
				for _, got := range []uint64{rows, hits} {
					if got > after || got+publishEvery+1 < before {
						t.Errorf("live read %d outside [%d-%d, %d]", got, before, publishEvery+1, after)
						return
					}
				}
			}
		}()
		for i, req := range cloneStream(stream) {
			if err := e.sess.PreIO(nil, req); err != nil {
				t.Errorf("round %d: %v", i, err)
				break
			}
		}
		close(done)
		wg.Wait()
	})

	// exact requires the engine's published counts to equal the session's
	// own exact view; it reads the aggregates first, since the session's
	// owner-side reads publish.
	exact := func(t *testing.T, when string, e *cadenceEngine, wantRounds uint64) {
		t.Helper()
		row, hits := e.row(), e.entryHits(1)
		st := e.sh.Stats()
		if st.Rounds != wantRounds || row.Rounds != wantRounds || hits != wantRounds {
			t.Fatalf("%s: stats %d, registry %d, coverage %d rounds, want %d",
				when, st.Rounds, row.Rounds, hits, wantRounds)
		}
		if got := row.Anomalies(); got != st.CondAnomalies+st.ParamAnomalies+st.IndirectAnomalies {
			t.Fatalf("%s: registry anomalies %d, stats %+v", when, got, st)
		}
		if own := e.sess.Snapshot(); own != row {
			t.Fatalf("%s: registry row %+v, session's own %+v", when, row, own)
		}
		if own := e.sess.Coverage(); !sameCounts(own, e.cov(1)) {
			t.Fatalf("%s: coverage %+v, session's own %+v", when, e.cov(1), own)
		}
	}
	diag := func() *interp.Request {
		return interp.NewWrite(interp.SpacePIO, testdev.PortCmd, []byte{testdev.CmdDiag})
	}
	const lead = 10 // rounds held unpublished before the event

	t.Run("anomaly", func(t *testing.T) {
		e := engine(checker.WithMode(checker.ModeEnhancement))
		for _, req := range cloneStream(reqs[:lead]) {
			if err := e.sess.PreIO(nil, req); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.sess.PreIO(nil, diag()); err != nil {
			t.Fatal(err)
		}
		if e.sh.Stats().Warnings != 1 {
			t.Fatalf("untrained command did not warn: %+v", e.sh.Stats())
		}
		exact(t, "per-round anomaly", e, lead+1)

		b := engine(checker.WithMode(checker.ModeEnhancement))
		vs := b.sess.PreIOBatch(append(cloneStream(reqs[:lead]), diag()))
		if last := vs[lead]; !last.Checked || last.Err != nil || b.sh.Stats().Warnings != 1 {
			t.Fatalf("batched anomaly round: verdict %+v, stats %+v", last, b.sh.Stats())
		}
		exact(t, "batched anomaly", b, lead+1)
	})

	t.Run("adoption", func(t *testing.T) {
		e := engine()
		// A second, idle session keeps generation 1 retained after the
		// first one moves on, so its folded coverage stays readable.
		idle := e.sh.NewSession(e.sess.Shadow().Clone())
		defer idle.Close()
		rs := cloneStream(reqs)
		for _, req := range rs[:lead] {
			if err := e.sess.PreIO(nil, req); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.sh.Swap(spec); err != nil {
			t.Fatal(err)
		}
		if err := e.sess.PreIO(nil, rs[lead]); err != nil { // adopts generation 2
			t.Fatal(err)
		}
		if e.sess.SpecGen() != 2 {
			t.Fatalf("session did not adopt: generation %d", e.sess.SpecGen())
		}
		row, hits := e.row(), e.entryHits(1)
		if row.Rounds != lead || hits != lead {
			t.Fatalf("after adoption: registry %d, generation-1 coverage %d rounds, want %d", row.Rounds, hits, lead)
		}
	})

	t.Run("close", func(t *testing.T) {
		e := engine()
		for _, req := range cloneStream(reqs[:lead]) {
			if err := e.sess.PreIO(nil, req); err != nil {
				t.Fatal(err)
			}
		}
		e.sess.Close()
		row, hits, st := e.row(), e.entryHits(1), e.sh.Stats()
		if st.Rounds != lead || row.Rounds != lead || hits != lead {
			t.Fatalf("after close: stats %d, registry %d, coverage %d rounds, want %d",
				st.Rounds, row.Rounds, hits, lead)
		}
	})
}
