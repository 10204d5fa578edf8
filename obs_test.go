// Observability acceptance tests: forensic context on every detected
// CVE, and the guard that keeps the always-on flight recorder from
// costing measurable overhead on the sealed check path.
package sedspec_test

import (
	"strings"
	"testing"
	"time"

	"sedspec"
	"sedspec/internal/bench"
	"sedspec/internal/checker"
	"sedspec/internal/cvesim"
	"sedspec/internal/devices/testdev"
	"sedspec/internal/obs"
	"sedspec/internal/workload"
)

// TestCVEForensicContext replays every CVE proof of concept under
// protection and asserts the paper-facing forensic contract: a detected
// exploit's anomaly carries a frozen flight-recorder window whose final
// event is the blocked I/O itself.
func TestCVEForensicContext(t *testing.T) {
	for _, p := range cvesim.All() {
		p := p
		t.Run(p.CVE, func(t *testing.T) {
			outc, err := p.RunProtected()
			if err != nil {
				t.Fatal(err)
			}
			if !outc.Detected {
				if len(p.Expected) == 0 {
					t.Skip("documented false negative: no anomaly, no context")
				}
				t.Fatalf("PoC not detected")
			}
			a := outc.Anomaly
			if a == nil || a.Ctx == nil {
				t.Fatalf("detected anomaly without forensic context: %+v", a)
			}
			if a.Ctx.Device != a.Device {
				t.Errorf("context device %q != anomaly device %q", a.Ctx.Device, a.Device)
			}
			if len(a.Ctx.Events) == 0 {
				t.Fatal("forensic context holds no events")
			}
			final := a.Ctx.Events[len(a.Ctx.Events)-1]
			if final.Verdict != obs.VerdictBlocked {
				t.Errorf("final context event verdict = %v, want blocked", final.Verdict)
			}
			if final.Round != a.Round {
				t.Errorf("final context event round = %d, anomaly round = %d", final.Round, a.Round)
			}
			if obs.StrategyName(final.Strategy) != a.Strategy.String() {
				t.Errorf("final event strategy %q != anomaly strategy %q",
					obs.StrategyName(final.Strategy), a.Strategy)
			}
			timeline := a.Ctx.String()
			if !strings.Contains(timeline, "blocked") || !strings.Contains(timeline, a.Device) {
				t.Errorf("timeline missing verdict or device:\n%s", timeline)
			}
		})
	}
}

// TestRecorderOverheadGuard pins the flight recorder's price on the
// sealed check path: interleaved replay chunks with the recorder on and
// off must stay within 5% (plus measurement slack) of each other, and
// the recorder-on steady state must allocate nothing.
func TestRecorderOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped with -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews the recorder/no-recorder ratio")
	}
	target := workload.TargetByName("fdc", true)
	r, err := bench.NewCheckerReplay(target, 60)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	on := r.NewChecker(checker.WithObs(reg))
	off := r.NewChecker(checker.WithRecorder(nil))
	if on.Recorder() == nil || off.Recorder() != nil {
		t.Fatal("checker recorder wiring wrong")
	}

	warmReplay(t, r, on, off)
	ratio, nsOn, nsOff, minAllocs := overheadRatio(t, r, on, off)
	// Judge allocations on the minimum across windows: background
	// runtime activity (scavenger timers, GC worker spawns) can land a
	// stray malloc in any one window, but a check path that allocates
	// does so in every window.
	if minAllocs != 0 {
		t.Fatalf("steady-state chunks allocated %d times in every window", minAllocs)
	}
	t.Logf("sealed check: recorder on %.1f ns/op, off %.1f ns/op, ratio %.3f", nsOn, nsOff, ratio)
	// Budget: the recorder's fixed ~15 ns per round reads near 8% of a
	// threaded round. 10% plus 3% measurement slack keeps the guard
	// catching recorder-cost regressions without failing on simulation
	// speedups.
	if ratio > 1.13 {
		t.Errorf("recorder costs %.1f%% on the sealed path, want <= 10%% (+slack)", 100*(ratio-1))
	}
	if rounds := on.Snapshot().Rounds; rounds == 0 {
		t.Error("recorder-on checker recorded no rounds")
	}
}

// TestRecorderTickIsVirtual: event timestamps come from the machine's
// simulated clock, not wall time, so replays are deterministic.
func TestRecorderTickIsVirtual(t *testing.T) {
	m, att := setup(t, testdev.Options{})
	lr := learn(t, att)
	reg := obs.NewRegistry()
	chk := sedspec.Protect(att, lr.Spec, checker.WithObs(reg))
	before := m.Clock.Now()
	if err := benignTrain(sedspec.NewDriver(att)); err != nil {
		t.Fatal(err)
	}
	if m.Clock.Now() <= before {
		t.Fatalf("virtual clock did not advance")
	}
	evs := chk.Recorder().Ring().Snapshot()
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Tick < evs[i-1].Tick {
			t.Fatalf("event %d tick %d before event %d tick %d", i, evs[i].Tick, i-1, evs[i-1].Tick)
		}
	}
	if evs[len(evs)-1].Tick == evs[0].Tick {
		t.Error("virtual time never advanced across a benign workload")
	}
	last := evs[len(evs)-1]
	if got := time.Duration(last.Tick) * time.Microsecond; got > m.Clock.Now() {
		t.Errorf("event tick %v beyond machine clock %v", got, m.Clock.Now())
	}
}
