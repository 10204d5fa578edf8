package checker_test

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"sedspec"
	"sedspec/internal/checker"
	"sedspec/internal/devices/testdev"
	"sedspec/internal/fuzzer"
	"sedspec/internal/interp"
	"sedspec/internal/machine"
	"sedspec/internal/obs"
	"sedspec/internal/simclock"
)

// Observability integration: flight-recorder wiring, session identity,
// and the aggregation laws the metrics layer depends on.

func randStats(r *simclock.Rand) checker.Stats {
	u := func() uint64 { return r.Uint64() >> 40 } // keep sums far from overflow
	return checker.Stats{
		Rounds:             u(),
		ParamAnomalies:     u(),
		IndirectAnomalies:  u(),
		CondAnomalies:      u(),
		Blocked:            u(),
		Warnings:           u(),
		Resyncs:            u(),
		StepsSimulated:     u(),
		SyncPointsResolved: u(),
		WarningsDropped:    u(),
	}
}

// TestStatsMergeProperties checks that Stats.merge is commutative and
// associative with the zero value as identity — the laws that make
// "retired bank + live sessions, folded in any order" a well-defined
// aggregate.
func TestStatsMergeProperties(t *testing.T) {
	r := simclock.NewRand(42)
	for i := 0; i < 500; i++ {
		a, b, c := randStats(r), randStats(r), randStats(r)
		if checker.MergeStats(a, b) != checker.MergeStats(b, a) {
			t.Fatalf("merge not commutative: %+v vs %+v", a, b)
		}
		if checker.MergeStats(checker.MergeStats(a, b), c) != checker.MergeStats(a, checker.MergeStats(b, c)) {
			t.Fatalf("merge not associative: %+v %+v %+v", a, b, c)
		}
		if checker.MergeStats(a, checker.Stats{}) != a {
			t.Fatalf("zero not identity for %+v", a)
		}
	}
}

// TestMetricsMergeProperties checks the same laws for the observability
// snapshots Registry.Snapshot folds.
func TestMetricsMergeProperties(t *testing.T) {
	r := simclock.NewRand(7)
	randSnap := func() obs.MetricsSnapshot {
		m := obs.MetricsSnapshot{Device: "dev", Rounds: r.Uint64() >> 40}
		for s := range m.Outcomes {
			for v := range m.Outcomes[s] {
				m.Outcomes[s][v] = r.Uint64() >> 40
			}
		}
		for i := range m.Steps.Buckets {
			m.Steps.Buckets[i] = r.Uint64() >> 40
		}
		return m
	}
	for i := 0; i < 200; i++ {
		a, b, c := randSnap(), randSnap(), randSnap()
		if a.Merge(b) != b.Merge(a) {
			t.Fatalf("Merge not commutative")
		}
		if a.Merge(b).Merge(c) != a.Merge(b.Merge(c)) {
			t.Fatalf("Merge not associative")
		}
		if a.Merge(obs.MetricsSnapshot{}) != a {
			t.Fatalf("zero not identity")
		}
	}
}

// TestSessionIDStamping verifies the identity chain: pool session ID →
// attachment → per-session checker → recorder → anomaly.
func TestSessionIDStamping(t *testing.T) {
	_, att := setup(t)
	spec := learn(t, att)
	sh := sedspec.NewSharedChecker(spec)

	const n = 3
	p := machine.NewPool(n, testdevBuild)
	chks := make([]*checker.Checker, n)
	for i, s := range p.Sessions() {
		if got := s.Attached().SessionID(); got != i {
			t.Errorf("attachment session ID = %d, want %d", got, i)
		}
		chks[i] = sedspec.ProtectShared(s.Attached(), sh)
		if got := chks[i].Recorder().Session(); got != i {
			t.Errorf("recorder session ID = %d, want %d", got, i)
		}
	}

	// An off-spec command in session 2 blocks; the anomaly must carry the
	// session and name it in the error, along with device and round.
	d := sedspec.NewDriver(p.Session(2).Attached())
	_, err := d.Out8(testdev.PortCmd, testdev.CmdDiag)
	if err == nil {
		t.Fatal("off-spec command not blocked")
	}
	var anom *checker.Anomaly
	if !errors.As(err, &anom) {
		t.Fatalf("blocked error does not wrap an anomaly: %v", err)
	}
	if anom.Session != 2 {
		t.Errorf("anomaly session = %d, want 2", anom.Session)
	}
	for _, want := range []string{"session 2", "testdev", "round 1"} {
		if !strings.Contains(anom.Error(), want) {
			t.Errorf("anomaly error missing %q: %s", want, anom.Error())
		}
	}
	if anom.Ctx == nil || anom.Ctx.Session != 2 {
		t.Errorf("anomaly context missing or mis-attributed: %+v", anom.Ctx)
	}
}

// TestProtectAnomalyCarriesSession: a checker built by Protect is the
// session of a private engine, so its anomaly, error text and frozen
// context carry the attachment's session ID like any shared session's.
func TestProtectAnomalyCarriesSession(t *testing.T) {
	_, train := setup(t)
	spec := learn(t, train)
	att := machine.NewSession(5, testdevBuild).Attached()
	sedspec.Protect(att, spec)
	d := sedspec.NewDriver(att)
	if err := benign(d); err != nil {
		t.Fatal(err)
	}
	_, err := d.Out8(testdev.PortCmd, testdev.CmdDiag)
	var anom *checker.Anomaly
	if !errors.As(err, &anom) {
		t.Fatalf("off-spec command not blocked: %v", err)
	}
	if anom.Session != att.SessionID() {
		t.Errorf("anomaly session = %d, want the attachment's %d", anom.Session, att.SessionID())
	}
	for _, want := range []string{"session 5", "testdev", "round"} {
		if !strings.Contains(anom.Error(), want) {
			t.Errorf("anomaly error missing %q: %s", want, anom.Error())
		}
	}
	if anom.Ctx == nil || anom.Ctx.Session != att.SessionID() {
		t.Errorf("anomaly context missing or mis-attributed: %+v", anom.Ctx)
	}
}

// TestSharedClearWarnings: the engine-wide clear empties the retired
// buffer and every open session, preserving capacity, and later warnings
// still collect.
func TestSharedClearWarnings(t *testing.T) {
	_, att := setup(t)
	spec := learn(t, att)
	sh := sedspec.NewSharedChecker(spec, checker.WithMode(checker.ModeEnhancement))

	const n = 2
	p := machine.NewPool(n, testdevBuild)
	chks := make([]*checker.Checker, n)
	for i, s := range p.Sessions() {
		chks[i] = sedspec.ProtectShared(s.Attached(), sh)
	}
	warnOnce := func(i int) {
		t.Helper()
		if _, err := sedspec.NewDriver(p.Session(i).Attached()).Out8(testdev.PortCmd, testdev.CmdDiag); err != nil {
			t.Fatal(err)
		}
	}
	warnOnce(0)
	warnOnce(1)
	chks[0].Close() // one warning now lives in the retired buffer
	if got := len(sh.Warnings()); got != 2 {
		t.Fatalf("warnings before clear = %d, want 2", got)
	}

	sh.ClearAudited(sh.Audit())
	if got := sh.Warnings(); got != nil {
		t.Errorf("warnings after clear = %v, want none", got)
	}

	// The clear keeps collecting: a fresh warning in the surviving session
	// is visible, and the cleared counters stayed (Stats is history, the
	// warning buffer is the inbox).
	warnOnce(1)
	if got := len(sh.Warnings()); got != 1 {
		t.Errorf("warnings after clear+warn = %d, want 1", got)
	}
	if sh.Stats().Warnings != 3 {
		t.Errorf("warning counter = %d, want 3", sh.Stats().Warnings)
	}
}

// TestRegistryMidHammer hammers N concurrent protected sessions with raw
// random I/O while another goroutine snapshots the metrics registry.
// Under -race this proves the snapshot path is safe against running
// sessions; after quiescing, the registry view must equal the sum of the
// per-session recorder snapshots, and stay stable across session churn.
func TestRegistryMidHammer(t *testing.T) {
	_, att := setup(t)
	spec := learn(t, att)
	reg := obs.NewRegistry()
	// Enhancement mode plus a no-op halt keeps sessions checking (and
	// recording) straight through the anomalies random I/O provokes.
	sh := checker.NewShared(spec,
		checker.WithObs(reg),
		checker.WithMode(checker.ModeEnhancement))

	const n = 4
	p := machine.NewPool(n, testdevBuild)
	chks := make([]*checker.Checker, n)
	for i, s := range p.Sessions() {
		chks[i] = sedspec.ProtectShared(s.Attached(), sh, checker.WithHalt(func() {}))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				snap := reg.Snapshot().Row("", spec.Device)
				if snap.Rounds < snap.Anomalies() {
					t.Errorf("mid-run snapshot inconsistent: %d rounds < %d anomalies",
						snap.Rounds, snap.Anomalies())
					return
				}
			}
		}
	}()
	if err := p.Run(func(s *machine.Session) error {
		fuzzer.Hammer(s.Attached(), interp.SpacePIO, testdev.PortCmd, testdev.PortCount,
			uint64(1+s.ID()), 2000)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	want := chks[0].Snapshot()
	for _, c := range chks[1:] {
		want = want.Merge(c.Snapshot())
	}
	got := reg.Snapshot().Row("", spec.Device)
	if got != want {
		t.Errorf("registry snapshot != sum of session snapshots:\n  got:  %+v\n  want: %+v", got, want)
	}
	if got.Rounds == 0 || got.Anomalies() == 0 {
		t.Errorf("hammer recorded no activity: %+v", got)
	}

	chks[0].Close()
	chks[1].Close()
	if after := reg.Snapshot().Row("", spec.Device); after != got {
		t.Errorf("aggregate changed across churn:\n  got:  %+v\n  want: %+v", after, got)
	}
}

// TestWithRecorderNilDisables: the recorder can be opted out entirely.
func TestWithRecorderNilDisables(t *testing.T) {
	_, att := setup(t)
	spec := learn(t, att)
	reg := obs.NewRegistry()
	chk := sedspec.Protect(att, spec, checker.WithObs(reg), sedspec.WithRecorder(nil))
	if chk.Recorder() != nil {
		t.Fatal("recorder not disabled")
	}
	if err := benign(sedspec.NewDriver(att)); err != nil {
		t.Fatal(err)
	}
	if reg.Recorders() != 0 || len(reg.Snapshot().Devices) != 0 {
		t.Errorf("disabled recorder still registered: %d recorders", reg.Recorders())
	}
	if got := chk.Snapshot(); got.Rounds != 0 {
		t.Errorf("disabled recorder reports %d rounds", got.Rounds)
	}
}
