// Differential tests pinning the production check engine to its oracle:
// across all nine CVE case studies, in both protection and enhancement
// modes, at a reduced budget and at the default one, the Checker (the
// threaded-code stream every deployment runs, with its loop fast-forward)
// and the Reference (the pre-seal interpreter over the unsealed Spec)
// must produce the same anomaly stream, the same warning stream, the same
// counters and the same shadow device state. This is the correctness
// argument for the lowering — any divergence in transition semantics,
// access control, DSOD execution, peephole fusion, or step batching shows
// up here.
package sedspec_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"sedspec"
	"sedspec/internal/checker"
	"sedspec/internal/core"
	"sedspec/internal/cvesim"
	"sedspec/internal/interp"
	"sedspec/internal/machine"
	"sedspec/internal/obs/coverage"
)

// diffRun is everything observable from one protected exploit replay.
type diffRun struct {
	anomaly  *checker.Anomaly
	stats    checker.Stats
	warnings []checker.Anomaly
	err      string
	// shadow is the shadow device state after the replay; coverage the
	// checker's ES-CFG coverage counts (nil under the Reference, which
	// keeps none).
	shadow   []byte
	coverage *coverage.Snapshot
}

// engine is what the differentials observe on either check engine.
type engine interface {
	machine.Interposer
	machine.PostInterposer
	Stats() checker.Stats
	Warnings() []checker.Anomaly
	Shadow() *interp.State
	NeedsResync() bool
	ResyncShadow(*interp.State)
}

// engineFunc builds one of the two engines over a spec.
type engineFunc func(spec *core.Spec, initial *interp.State, opts ...checker.Option) engine

// The two check engines the differentials pin together: the threaded-code
// stream compiled at Seal time (the deployed engine) and the pre-seal
// reference interpreter (the oracle).
var (
	threadedEngine engineFunc = func(spec *core.Spec, initial *interp.State, opts ...checker.Option) engine {
		return checker.New(spec, initial, opts...)
	}
	referenceEngine engineFunc = func(spec *core.Spec, initial *interp.State, opts ...checker.Option) engine {
		return checker.NewReference(spec, initial, opts...)
	}
)

// coverageOf snapshots an engine's ES-CFG coverage counts; nil for the
// Reference, which keeps none.
func coverageOf(e engine) *coverage.Snapshot {
	if c, ok := e.(*checker.Checker); ok {
		return c.Coverage()
	}
	return nil
}

// captureRun classifies an exploit's outcome and snapshots the engine's
// observable state.
func captureRun(chk engine, err error) diffRun {
	var run diffRun
	var anom *checker.Anomaly
	switch {
	case errors.As(err, &anom):
		run.anomaly = anom
	case err == nil, errors.Is(err, machine.ErrBlocked), errors.Is(err, machine.ErrHalted):
		// Exploit ran to completion or was stopped by the machine; either
		// way the checker state below is the observable outcome.
	default:
		run.err = err.Error()
	}
	run.stats = chk.Stats()
	run.warnings = chk.Warnings()
	run.shadow = bytes.Clone(chk.Shadow().Bytes())
	run.coverage = coverageOf(chk)
	return run
}

// diffBudgets are the per-round step budgets the differentials run at:
// a reduced one, and the default every deployment (and the daemon) uses,
// where CVE-2016-7909's loop is detected only after 2^20 steps.
var diffBudgets = []struct {
	name string
	opts []checker.Option
}{
	{"budget=200000", []checker.Option{checker.WithBudget(200_000)}},
	{"budget=default", nil},
}

// replayPoC learns a spec from the PoC's training routine, protects the
// device with the requested engine and mode, wired as sedspec.Protect
// wires a checker, replays the exploit, and captures the full observable
// checker state.
func replayPoC(t *testing.T, p *cvesim.PoC, mode checker.Mode, budget []checker.Option, build engineFunc) diffRun {
	t.Helper()
	m := machine.New(machine.WithMemory(1 << 20))
	dev, aopts := p.Build()
	att := m.Attach(dev, aopts...)
	spec, err := sedspec.Learn(att, p.Train)
	if err != nil {
		t.Fatalf("learn: %v", err)
	}
	opts := append([]checker.Option{
		checker.WithEnv(att),
		checker.WithHalt(m.Halt),
		checker.WithClock(m.Clock),
		checker.WithSessionID(att.SessionID()),
		checker.WithMode(mode),
	}, budget...)
	chk := build(spec, att.Dev().State(), opts...)
	att.AddInterposer(chk)
	return captureRun(chk, p.Exploit(sedspec.NewDriver(att), m))
}

func describeAnomaly(a *checker.Anomaly) string {
	if a == nil {
		return "<none>"
	}
	return fmt.Sprintf("{%s %s block=%v round=%d %q}", a.Strategy, a.Device, a.Block, a.Round, a.Detail)
}

func sameAnomaly(a, b *checker.Anomaly) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return a.Strategy == b.Strategy && a.Device == b.Device &&
		a.Block == b.Block && a.Src == b.Src &&
		a.Detail == b.Detail && a.Round == b.Round
}

// TestEngineDifferential replays every case study under both engines at
// both budgets and requires bit-identical observable behaviour: the
// threaded run is the baseline, and the reference run must match it
// exactly.
func TestEngineDifferential(t *testing.T) {
	for _, p := range cvesim.All() {
		for _, mode := range []checker.Mode{checker.ModeProtection, checker.ModeEnhancement} {
			t.Run(fmt.Sprintf("%s/%s", p.CVE, mode), func(t *testing.T) {
				for _, b := range diffBudgets {
					t.Run(b.name, func(t *testing.T) {
						baseline := replayPoC(t, p, mode, b.opts, threadedEngine)
						assertSameRun(t, "reference", replayPoC(t, p, mode, b.opts, referenceEngine), baseline)
					})
				}
			})
		}
	}
}

// assertSameRun pins one run's full observable state to another's.
func assertSameRun(t *testing.T, label string, got, want diffRun) {
	t.Helper()
	if !sameAnomaly(got.anomaly, want.anomaly) {
		t.Errorf("%s: blocking anomaly diverges:\n  got:  %s\n  want: %s",
			label, describeAnomaly(got.anomaly), describeAnomaly(want.anomaly))
	}
	if got.err != want.err {
		t.Errorf("%s: exploit error diverges: got %q, want %q", label, got.err, want.err)
	}
	if got.stats != want.stats {
		t.Errorf("%s: stats diverge:\n  got:  %+v\n  want: %+v", label, got.stats, want.stats)
	}
	assertSameState(t, label, got.shadow, want.shadow, got.coverage, want.coverage)
	if len(got.warnings) != len(want.warnings) {
		t.Fatalf("%s: warning streams diverge: got %d, want %d",
			label, len(got.warnings), len(want.warnings))
	}
	for i := range got.warnings {
		if !sameAnomaly(&got.warnings[i], &want.warnings[i]) {
			t.Errorf("%s: warning %d diverges:\n  got:  %s\n  want: %s",
				label, i, describeAnomaly(&got.warnings[i]), describeAnomaly(&want.warnings[i]))
		}
	}
}

// assertSameState pins two runs' shadow device states to each other, and
// their coverage counts when both engines keep them.
func assertSameState(t *testing.T, label string, gotShadow, wantShadow []byte, got, want *coverage.Snapshot) {
	t.Helper()
	if !bytes.Equal(gotShadow, wantShadow) {
		t.Errorf("%s: shadow state diverges", label)
	}
	if got != nil && want != nil && !reflect.DeepEqual(got, want) {
		t.Errorf("%s: coverage diverges:\n  got:  %v\n  want: %v", label, got, want)
	}
}

// TestConcurrentSessionsDifferential is the concurrency correctness
// argument: for every CVE PoC, in both modes, N guest sessions sharing
// one sealed engine and exploited in parallel must each produce exactly
// the anomaly stream the serial sealed engine produces, and the shared
// engine's aggregate counters must be the exact N-fold sum. Run under
// -race this also proves the check path is data-race free.
func TestConcurrentSessionsDifferential(t *testing.T) {
	const n = 4
	for _, p := range cvesim.All() {
		for _, mode := range []checker.Mode{checker.ModeProtection, checker.ModeEnhancement} {
			t.Run(fmt.Sprintf("%s/%s", p.CVE, mode), func(t *testing.T) {
				// Learn the spec once; everything below shares it.
				lm := machine.New(machine.WithMemory(1 << 20))
				ldev, laopts := p.Build()
				latt := lm.Attach(ldev, laopts...)
				spec, err := sedspec.Learn(latt, p.Train)
				if err != nil {
					t.Fatalf("learn: %v", err)
				}
				opts := []checker.Option{checker.WithMode(mode), checker.WithBudget(200_000)}

				// Serial sealed baseline on its own fresh machine.
				bm := machine.New(machine.WithMemory(1 << 20))
				bdev, baopts := p.Build()
				batt := bm.Attach(bdev, baopts...)
				bchk := sedspec.Protect(batt, spec, opts...)
				baseline := captureRun(bchk, p.Exploit(sedspec.NewDriver(batt), bm))

				// N parallel sessions drawing per-session checkers from one
				// shared engine, each exploited concurrently on its own
				// machine over the same shared spec version.
				sh := sedspec.NewSharedChecker(spec, opts...)
				pool := machine.NewPool(n, p.Build, machine.WithMemory(1<<20))
				chks := make([]*checker.Checker, n)
				for i, s := range pool.Sessions() {
					chks[i] = sedspec.ProtectShared(s.Attached(), sh)
				}
				runs := make([]diffRun, n)
				if err := pool.Run(func(s *machine.Session) error {
					runs[s.ID()] = captureRun(chks[s.ID()],
						p.Exploit(sedspec.NewDriver(s.Attached()), s.Machine()))
					return nil
				}); err != nil {
					t.Fatal(err)
				}

				for i := range runs {
					assertSameRun(t, fmt.Sprintf("session %d", i), runs[i], baseline)
				}

				// Aggregate accounting: the shared engine saw exactly N
				// serial runs' worth of work.
				b := baseline.stats
				want := checker.Stats{
					Rounds:             n * b.Rounds,
					ParamAnomalies:     n * b.ParamAnomalies,
					IndirectAnomalies:  n * b.IndirectAnomalies,
					CondAnomalies:      n * b.CondAnomalies,
					Blocked:            n * b.Blocked,
					Warnings:           n * b.Warnings,
					Resyncs:            n * b.Resyncs,
					StepsSimulated:     n * b.StepsSimulated,
					SyncPointsResolved: n * b.SyncPointsResolved,
					WarningsDropped:    n * b.WarningsDropped,
				}
				if agg := sh.Stats(); agg != want {
					t.Errorf("aggregate stats:\n  got:  %+v\n  want: %+v", agg, want)
				}
				if got := len(sh.Warnings()); got != n*len(baseline.warnings) {
					t.Errorf("aggregate warnings = %d, want %d", got, n*len(baseline.warnings))
				}
			})
		}
	}
}

// TestEngineDifferentialBenign replays each training routine under
// protection with both engines: each must stay silent and count the same
// simulation work.
func TestEngineDifferentialBenign(t *testing.T) {
	for _, p := range cvesim.All() {
		t.Run(p.CVE, func(t *testing.T) {
			run := func(build engineFunc) checker.Stats {
				m := machine.New(machine.WithMemory(1 << 20))
				dev, aopts := p.Build()
				att := m.Attach(dev, aopts...)
				spec, err := sedspec.Learn(att, p.Train)
				if err != nil {
					t.Fatalf("learn: %v", err)
				}
				chk := build(spec, att.Dev().State(), checker.WithEnv(att),
					checker.WithHalt(m.Halt), checker.WithBudget(200_000))
				att.AddInterposer(chk)
				if err := p.Train(sedspec.NewDriver(att)); err != nil {
					t.Fatalf("benign replay: %v", err)
				}
				return chk.Stats()
			}
			baseline := run(threadedEngine)
			if baseline.ParamAnomalies+baseline.IndirectAnomalies+baseline.CondAnomalies != 0 {
				t.Errorf("benign replay raised anomalies: %+v", baseline)
			}
			if got := run(referenceEngine); got != baseline {
				t.Errorf("benign stats diverge:\n  threaded:  %+v\n  reference: %+v", baseline, got)
			}
		})
	}
}
