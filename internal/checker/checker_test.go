package checker_test

import (
	"errors"
	"testing"

	"sedspec"
	"sedspec/internal/checker"
	"sedspec/internal/devices/testdev"
	"sedspec/internal/interp"
	"sedspec/internal/machine"
)

func setup(t *testing.T) (*machine.Machine, *machine.Attached) {
	t.Helper()
	m := machine.New()
	dev := testdev.New(testdev.Options{})
	att := m.Attach(dev, machine.WithPIO(testdev.PortCmd, testdev.PortCount))
	return m, att
}

func benign(d *sedspec.Driver) error {
	for _, n := range []byte{2, 8, 16} {
		if _, err := d.Out8(testdev.PortCmd, testdev.CmdReset); err != nil {
			return err
		}
		if _, err := d.Out(testdev.PortCmd, []byte{testdev.CmdWriteBegin, n}); err != nil {
			return err
		}
		for i := byte(0); i < n; i++ {
			if _, err := d.Out8(testdev.PortData, i); err != nil {
				return err
			}
		}
		if _, err := d.Out8(testdev.PortCmd, testdev.CmdRead); err != nil {
			return err
		}
		if _, err := d.Out8(testdev.PortCmd, testdev.CmdStatus); err != nil {
			return err
		}
		if _, err := d.Out8(testdev.PortEnv, 0); err != nil {
			return err
		}
	}
	return nil
}

func learn(t *testing.T, att *machine.Attached) *sedspec.Spec {
	t.Helper()
	spec, err := sedspec.Learn(att, benign)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestModeStrings(t *testing.T) {
	if checker.ModeProtection.String() != "protection" ||
		checker.ModeEnhancement.String() != "enhancement" {
		t.Error("mode strings wrong")
	}
	if checker.StrategyParameter.String() != "parameter-check" {
		t.Error("strategy string wrong")
	}
}

func TestStatsAccumulate(t *testing.T) {
	m, att := setup(t)
	spec := learn(t, att)
	chk := sedspec.Protect(att, spec)
	d := sedspec.NewDriver(att)
	if err := benign(d); err != nil {
		t.Fatal(err)
	}
	st := chk.Stats()
	if st.Rounds == 0 || st.StepsSimulated == 0 {
		t.Errorf("stats not accumulating: %+v", st)
	}
	if st.SyncPointsResolved == 0 {
		t.Error("env rounds should resolve sync points")
	}
	_ = m
}

func TestBudgetOption(t *testing.T) {
	m, att := setup(t)
	spec := learn(t, att)
	// An absurdly small budget turns even benign rounds into conditional
	// anomalies — proving the bound is enforced.
	sedspec.Protect(att, spec, checker.WithBudget(2))
	d := sedspec.NewDriver(att)
	err := benign(d)
	var anom *checker.Anomaly
	if !errors.As(err, &anom) || anom.Strategy != checker.StrategyConditionalJump {
		t.Fatalf("want conditional (budget) anomaly, got %v", err)
	}
	_ = m
}

func TestWarningsClearing(t *testing.T) {
	m, att := setup(t)
	spec := learn(t, att)
	chk := sedspec.Protect(att, spec, checker.WithMode(checker.ModeEnhancement))
	d := sedspec.NewDriver(att)
	if _, err := d.Out8(testdev.PortCmd, testdev.CmdDiag); err != nil {
		t.Fatal(err)
	}
	if len(chk.Warnings()) != 1 {
		t.Fatalf("warnings = %d, want 1", len(chk.Warnings()))
	}
	w := chk.Warnings()[0]
	if w.Device != "testdev" || w.Round == 0 {
		t.Errorf("warning metadata incomplete: %+v", w)
	}
	if w.Error() == "" {
		t.Error("empty Error()")
	}
	chk.ClearWarnings()
	if len(chk.Warnings()) != 0 {
		t.Error("ClearWarnings did not clear")
	}
	_ = m
}

func TestAccessControlToggle(t *testing.T) {
	// With access control off, the checker still runs the other
	// conditional checks (unknown commands stay detected).
	m, att := setup(t)
	spec := learn(t, att)
	sedspec.Protect(att, spec,
		checker.WithAccessControl(false),
		checker.WithStrategies(checker.StrategyConditionalJump))
	d := sedspec.NewDriver(att)
	if err := benign(d); err != nil {
		t.Fatalf("benign blocked with AC off: %v", err)
	}
	_, err := d.Out8(testdev.PortCmd, testdev.CmdDiag)
	var anom *checker.Anomaly
	if !errors.As(err, &anom) {
		t.Fatalf("unknown command should still be flagged, got %v", err)
	}
	_ = m
}

func TestNoStrategiesMeansNoBlocking(t *testing.T) {
	// All strategies disabled: the checker simulates but never raises.
	m, att := setup(t)
	spec := learn(t, att)
	chk := sedspec.Protect(att, spec, checker.WithStrategies())
	d := sedspec.NewDriver(att)
	if err := benign(d); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Out8(testdev.PortCmd, testdev.CmdDiag); err != nil {
		t.Fatalf("nothing should block with no strategies: %v", err)
	}
	st := chk.Stats()
	if st.ParamAnomalies+st.IndirectAnomalies+st.CondAnomalies != 0 {
		t.Errorf("anomaly counters should stay zero: %+v", st)
	}
	if m.Halted() {
		t.Error("machine should not halt")
	}
}

func TestShadowDivergenceRecovery(t *testing.T) {
	// A warning round stops simulation mid-way; the PostIO resync must
	// bring the shadow back in line so later rounds stay clean.
	m, att := setup(t)
	spec := learn(t, att)
	chk := sedspec.Protect(att, spec, checker.WithMode(checker.ModeEnhancement))
	d := sedspec.NewDriver(att)

	// Three warning rounds in a row, benign traffic in between.
	for i := 0; i < 3; i++ {
		if _, err := d.Out8(testdev.PortCmd, testdev.CmdDiag); err != nil {
			t.Fatal(err)
		}
		if err := benign(d); err != nil {
			t.Fatalf("post-warning benign traffic blocked: %v", err)
		}
	}
	if got := chk.Stats().Resyncs; got != 3 {
		t.Errorf("resyncs = %d, want 3", got)
	}
	if got := len(chk.Warnings()); got != 3 {
		t.Errorf("warnings = %d, want 3 (no cascade)", got)
	}
	_ = m
}

func TestWarningsReturnsCopy(t *testing.T) {
	m, att := setup(t)
	spec := learn(t, att)
	chk := sedspec.Protect(att, spec, checker.WithMode(checker.ModeEnhancement))
	d := sedspec.NewDriver(att)
	if _, err := d.Out8(testdev.PortCmd, testdev.CmdDiag); err != nil {
		t.Fatal(err)
	}
	got := chk.Warnings()
	if len(got) != 1 {
		t.Fatalf("warnings = %d, want 1", len(got))
	}
	got[0].Detail = "mutated by caller"
	got[0].Strategy = checker.StrategyParameter
	if again := chk.Warnings(); again[0].Detail == "mutated by caller" ||
		again[0].Strategy == checker.StrategyParameter {
		t.Error("Warnings() must return a copy, not the internal slice")
	}
	_ = m
}

func TestClearWarningsKeepsCapacity(t *testing.T) {
	m, att := setup(t)
	spec := learn(t, att)
	chk := sedspec.Protect(att, spec, checker.WithMode(checker.ModeEnhancement))
	d := sedspec.NewDriver(att)
	for i := 0; i < 3; i++ {
		if _, err := d.Out8(testdev.PortCmd, testdev.CmdDiag); err != nil {
			t.Fatal(err)
		}
	}
	chk.ClearWarnings()
	if len(chk.Warnings()) != 0 {
		t.Fatal("ClearWarnings did not clear")
	}
	// The next warning must land in the retained backing array and be
	// visible again.
	if _, err := d.Out8(testdev.PortCmd, testdev.CmdDiag); err != nil {
		t.Fatal(err)
	}
	if got := len(chk.Warnings()); got != 1 {
		t.Errorf("warnings after clear = %d, want 1", got)
	}
	if got, want := chk.Stats().Warnings, uint64(4); got != want {
		t.Errorf("Stats.Warnings = %d, want %d", got, want)
	}
	_ = m
}

func TestResyncShadowRestoresTracking(t *testing.T) {
	m, att := setup(t)
	spec := learn(t, att)
	chk := sedspec.Protect(att, spec)
	d := sedspec.NewDriver(att)
	if err := benign(d); err != nil {
		t.Fatal(err)
	}

	// Corrupt the shadow, then resync from the real control structure:
	// the shadow must match again, command tracking must drop, and
	// access-vector checks must be suppressed until the next
	// command-decision block.
	chk.Shadow().Bytes()[0] ^= 0xFF
	chk.ResyncShadow(att.Dev().State())
	if got := chk.Stats().Resyncs; got != 1 {
		t.Fatalf("resyncs = %d, want 1", got)
	}
	if !chk.AccessSuppressed() {
		t.Error("resync must suppress access-vector checks")
	}
	if active, _ := chk.CommandActive(); active {
		t.Error("resync must drop the active command")
	}
	for i, b := range att.Dev().State().Bytes() {
		if chk.Shadow().Bytes()[i] != b {
			t.Fatalf("shadow byte %d diverges after resync", i)
		}
	}

	// A command round re-identifies the device command and restores
	// access tracking.
	if _, err := d.Out8(testdev.PortCmd, testdev.CmdStatus); err != nil {
		t.Fatal(err)
	}
	if chk.AccessSuppressed() {
		t.Error("command-decision block must restore access tracking")
	}
	if err := benign(d); err != nil {
		t.Fatalf("benign traffic blocked after resync: %v", err)
	}
	_ = m
}

// resyncEngine is what TestPostIOResyncAfterWarningRound observes on
// both engines.
type resyncEngine interface {
	Stats() checker.Stats
	Shadow() *interp.State
	AccessSuppressed() bool
	CommandActive() (bool, uint64)
}

func TestPostIOResyncAfterWarningRound(t *testing.T) {
	enhance := checker.WithMode(checker.ModeEnhancement)
	for _, tc := range []struct {
		name    string
		protect func(*machine.Attached, *sedspec.Spec) resyncEngine
	}{
		{"sealed", func(att *machine.Attached, spec *sedspec.Spec) resyncEngine {
			return sedspec.Protect(att, spec, enhance)
		}},
		{"reference", func(att *machine.Attached, spec *sedspec.Spec) resyncEngine {
			ref := checker.NewReference(spec, att.Dev().State(),
				checker.WithEnv(att), checker.WithHalt(att.Machine().Halt), enhance)
			att.AddInterposer(ref)
			return ref
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, att := setup(t)
			chk := tc.protect(att, learn(t, att))
			d := sedspec.NewDriver(att)

			// The diag command warns; the round completes and PostIO must
			// resynchronize the shadow from the real device state.
			if _, err := d.Out8(testdev.PortCmd, testdev.CmdDiag); err != nil {
				t.Fatal(err)
			}
			st := chk.Stats()
			if st.Warnings != 1 || st.Resyncs != 1 {
				t.Fatalf("warnings/resyncs = %d/%d, want 1/1", st.Warnings, st.Resyncs)
			}
			if !chk.AccessSuppressed() {
				t.Error("post-warning resync must suppress access checks")
			}
			if active, _ := chk.CommandActive(); active {
				t.Error("post-warning resync must drop the active command")
			}
			for i, b := range att.Dev().State().Bytes() {
				if chk.Shadow().Bytes()[i] != b {
					t.Fatalf("shadow byte %d diverges after PostIO resync", i)
				}
			}

			// Clean traffic re-engages tracking without further resyncs.
			if err := benign(d); err != nil {
				t.Fatal(err)
			}
			if chk.AccessSuppressed() {
				t.Error("benign command round must restore access tracking")
			}
			if got := chk.Stats().Resyncs; got != 1 {
				t.Errorf("resyncs after benign = %d, want 1", got)
			}
			_ = m
		})
	}
}

func TestHaltHookFires(t *testing.T) {
	m, att := setup(t)
	spec := learn(t, att)
	halted := 0
	chk := checker.New(spec, att.Dev().State(),
		checker.WithEnv(att),
		checker.WithHalt(func() { halted++ }))
	att.AddInterposer(chk)
	d := sedspec.NewDriver(att)
	if _, err := d.Out8(testdev.PortCmd, testdev.CmdDiag); err == nil {
		t.Fatal("want blocking anomaly")
	}
	if halted != 1 {
		t.Errorf("halt hook fired %d times, want 1", halted)
	}
	if chk.Stats().Blocked != 1 {
		t.Errorf("Blocked = %d, want 1", chk.Stats().Blocked)
	}
	_ = m
}
