package sedspec_test

import (
	"errors"
	"reflect"
	"testing"

	"sedspec"
	"sedspec/internal/analysis"
	"sedspec/internal/checker"
	"sedspec/internal/core"
	"sedspec/internal/devices/testdev"
	"sedspec/internal/machine"
)

func TestRollbackRecovery(t *testing.T) {
	m, att := setup(t, testdev.Options{})
	spec := learn(t, att).Spec
	chk, guard := sedspec.ProtectWithRollback(att, spec, 4)

	d := sedspec.NewDriver(att)
	// Establish meaningful device state, then enough clean rounds to
	// refresh the snapshot past it.
	if _, err := d.Out(testdev.PortCmd, []byte{testdev.CmdWriteBegin, 8}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := d.Out8(testdev.PortData, 0x5A); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Out8(testdev.PortCmd, testdev.CmdStatus); err != nil {
		t.Fatal(err)
	}

	// The exploit attempt: blocked, rolled back, machine stays up.
	err := venomExploit(d, 32)
	var anom *sedspec.Anomaly
	if !errors.As(err, &anom) {
		t.Fatalf("exploit not blocked: %v", err)
	}
	if m.Halted() {
		t.Fatal("rollback should leave the machine running")
	}
	if guard.Recoveries != 1 {
		t.Errorf("Recoveries = %d, want 1", guard.Recoveries)
	}

	// The machine rolled back to the last clean snapshot. Note what that
	// means: the exploit's in-bounds prefix (legal FIFO writes) is clean
	// traffic and may be part of the snapshot — rollback only guarantees
	// the *violating* state never sticks.
	if pos, _ := att.Dev().State().IntByName("data_pos"); pos > 16 {
		t.Errorf("data_pos = %d: violating state survived rollback", pos)
	}

	// Traffic continues after recovery.
	if err := benignTrain(d); err != nil {
		t.Fatalf("post-recovery benign traffic blocked: %v", err)
	}
	if chk.Stats().Blocked == 0 {
		t.Error("blocked counter should have recorded the attempt")
	}
}

// TestRollbackEntryPointsAgree: ProtectWithRollback is
// ProtectSharedWithRollback over a private engine, so on identical
// guests one PoC yields the same anomaly session and round and the same
// frozen flight-recorder context, stamped with the attachment's session
// ID and the machine's virtual clock.
func TestRollbackEntryPointsAgree(t *testing.T) {
	_, train := setup(t, testdev.Options{})
	spec := learn(t, train).Spec
	build := func() (machine.Device, []machine.AttachOption) {
		return testdev.New(testdev.Options{}), []machine.AttachOption{machine.WithPIO(testdev.PortCmd, testdev.PortCount)}
	}
	run := func(protect func(att *machine.Attached)) *sedspec.Anomaly {
		t.Helper()
		att := machine.NewSession(3, build).Attached()
		protect(att)
		d := sedspec.NewDriver(att)
		if err := benignTrain(d); err != nil {
			t.Fatal(err)
		}
		var anom *sedspec.Anomaly
		if err := venomExploit(d, 32); !errors.As(err, &anom) {
			t.Fatalf("exploit not blocked: %v", err)
		}
		return anom
	}
	private := run(func(att *machine.Attached) { sedspec.ProtectWithRollback(att, spec, 4) })
	shared := run(func(att *machine.Attached) {
		sedspec.ProtectSharedWithRollback(att, sedspec.NewSharedChecker(spec), 4)
	})
	if private.Session != 3 || shared.Session != 3 {
		t.Errorf("anomaly sessions = %d (ProtectWithRollback), %d (ProtectSharedWithRollback), want 3",
			private.Session, shared.Session)
	}
	if private.Round != shared.Round {
		t.Errorf("anomaly rounds differ: %d vs %d", private.Round, shared.Round)
	}
	if private.Ctx == nil || len(private.Ctx.Events) == 0 || private.Ctx.Session != 3 {
		t.Fatalf("frozen context missing or mis-attributed: %+v", private.Ctx)
	}
	if last := private.Ctx.Events[len(private.Ctx.Events)-1]; last.Tick == 0 {
		t.Errorf("blocked event carries tick 0: the machine's clock is not wired")
	}
	if !reflect.DeepEqual(private.Ctx, shared.Ctx) {
		t.Errorf("frozen contexts differ:\n  ProtectWithRollback:       %+v\n  ProtectSharedWithRollback: %+v",
			private.Ctx, shared.Ctx)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	m, att := setup(t, testdev.Options{})
	d := sedspec.NewDriver(att)
	if _, err := d.Out(testdev.PortCmd, []byte{testdev.CmdWriteBegin, 4}); err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.Write(0x100, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()

	// Mutate everything, then restore.
	if _, err := d.Out8(testdev.PortCmd, testdev.CmdReset); err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.Write(0x100, []byte{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	m.Halt()
	if err := m.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if m.Halted() {
		t.Error("Restore should clear the halt")
	}
	if v, _ := att.Dev().State().IntByName("data_len"); v != 4 {
		t.Errorf("data_len = %d, want 4 (restored)", v)
	}
	buf := make([]byte, 3)
	if err := m.Mem.Read(0x100, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 {
		t.Errorf("guest memory not restored: %v", buf)
	}
}

func TestRestoreRejectsMismatchedMachine(t *testing.T) {
	m1, _ := setup(t, testdev.Options{})
	snap := m1.Snapshot()
	m2 := sedspec.NewMachine(machine.WithMemory(1 << 10))
	if err := m2.Restore(snap); err == nil {
		t.Error("restoring a foreign snapshot must fail")
	}
}

func TestAnomalySeverityLevels(t *testing.T) {
	cases := map[checker.Strategy]checker.Severity{
		checker.StrategyParameter:       checker.SeverityCritical,
		checker.StrategyIndirectJump:    checker.SeverityHigh,
		checker.StrategyConditionalJump: checker.SeverityWarning,
	}
	for strat, want := range cases {
		a := &checker.Anomaly{Strategy: strat}
		if a.Severity() != want {
			t.Errorf("%v severity = %v, want %v", strat, a.Severity(), want)
		}
	}
	if checker.SeverityCritical.String() != "critical" {
		t.Error("severity strings wrong")
	}
}

// TestFalsePositiveRemedyByRefinement reproduces §VIII's remedy: a rare
// command flags as a false positive; retraining with a corpus that covers
// it (here via merged logs from a second "tester") eliminates the flag.
func TestFalsePositiveRemedyByRefinement(t *testing.T) {
	_, att := setup(t, testdev.Options{})
	first := learn(t, att)

	// The rare diagnostic command is a false positive under the first
	// specification.
	sedspec.Protect(att, first.Spec)
	d := sedspec.NewDriver(att)
	if _, err := d.Out8(testdev.PortCmd, testdev.CmdDiag); err == nil {
		t.Fatal("diag should be flagged under the initial spec")
	}
	att.Machine().Resume()
	sedspec.Unprotect(att)

	// A second contributor's training covers the diagnostic command.
	second, err := sedspec.LearnFull(att, func(dr *sedspec.Driver) error {
		if err := benignTrain(dr); err != nil {
			return err
		}
		_, err := dr.Out8(testdev.PortCmd, testdev.CmdDiag)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	merged, err := analysis.MergeLogs(first.Log, second.Log)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := core.Build(att.Dev().Program(), second.Params, merged)
	if err != nil {
		t.Fatal(err)
	}
	if refined.Stats.Commands <= first.Spec.Stats.Commands {
		t.Errorf("refined spec should learn more commands: %d vs %d",
			refined.Stats.Commands, first.Spec.Stats.Commands)
	}

	att.Dev().Reset()
	sedspec.Protect(att, refined)
	if _, err := d.Out8(testdev.PortCmd, testdev.CmdDiag); err != nil {
		t.Fatalf("diag still flagged after refinement: %v", err)
	}
	// The original protections are intact.
	if err := venomExploit(d, 32); err == nil {
		t.Error("venom must still be blocked by the refined spec")
	}
}

func TestMergeLogsRejectsMixedDevices(t *testing.T) {
	a := &analysis.Log{Device: "fdc"}
	b := &analysis.Log{Device: "scsi"}
	if _, err := analysis.MergeLogs(a, b); err == nil {
		t.Error("merging logs for different devices must fail")
	}
	if _, err := analysis.MergeLogs(); err == nil {
		t.Error("merging nothing must fail")
	}
}
