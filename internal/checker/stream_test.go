package checker_test

import (
	"testing"

	"sedspec"
	"sedspec/internal/checker"
	"sedspec/internal/devices/testdev"
	"sedspec/internal/obs"
	"sedspec/internal/obs/stream"
)

// Telemetry integration: the checker's rare paths publish typed events
// into the hub WithStream selects — session lifecycle, blocked
// anomalies with their frozen context, enhancement audits, and spec
// hot-swaps — and clean rounds publish nothing.

func kindsOf(evs []stream.Event) []stream.Kind {
	out := make([]stream.Kind, len(evs))
	for i := range evs {
		out[i] = evs[i].Kind
	}
	return out
}

// TestSerialCheckerStream: attach, blocked anomaly (with forensic
// context), and detach on a checker built by New, published to a caller-owned
// hub. A benign run in between publishes nothing.
func TestSerialCheckerStream(t *testing.T) {
	_, att := setup(t)
	spec := learn(t, att)
	hub := stream.NewHub()
	sub := hub.Subscribe()
	defer sub.Close()

	chk := sedspec.Protect(att, spec,
		checker.WithObs(obs.NewRegistry()),
		sedspec.WithStream(hub))
	d := sedspec.NewDriver(att)

	ev, ok := sub.TryRecv()
	if !ok || ev.Kind != stream.KindAttach || ev.Device != "testdev" {
		t.Fatalf("attach event = %+v, %v", ev, ok)
	}

	if err := benign(d); err != nil {
		t.Fatal(err)
	}
	if ev, ok := sub.TryRecv(); ok {
		t.Fatalf("clean rounds published %+v", ev)
	}

	if _, err := d.Out8(testdev.PortCmd, testdev.CmdDiag); err == nil {
		t.Fatal("off-spec command not blocked")
	}
	ev, ok = sub.TryRecv()
	if !ok || ev.Kind != stream.KindAnomaly {
		t.Fatalf("anomaly event = %+v, %v", ev, ok)
	}
	a := ev.Anomaly
	if a == nil || a.Strategy == "" || a.Detail == "" || !a.Write {
		t.Fatalf("anomaly payload %+v", a)
	}
	if a.Ctx == nil || len(a.Ctx.Events) == 0 {
		t.Fatal("anomaly event lost its forensic context")
	}
	if final := a.Ctx.Events[len(a.Ctx.Events)-1]; final.Verdict != obs.VerdictBlocked {
		t.Errorf("context final verdict = %v", final.Verdict)
	}

	rounds := chk.Stats().Rounds
	chk.Close()
	chk.Close() // idempotent: one detach, not two
	ev, ok = sub.TryRecv()
	if !ok || ev.Kind != stream.KindDetach {
		t.Fatalf("detach event = %+v, %v", ev, ok)
	}
	if ev.Detach == nil || ev.Detach.Rounds != rounds || ev.Detach.Blocked == 0 {
		t.Errorf("detach counters %+v, want rounds %d", ev.Detach, rounds)
	}
	if ev, ok := sub.TryRecv(); ok {
		t.Fatalf("extra event after double close: %+v", ev)
	}
	if got := hub.Published(stream.KindDetach); got != 1 {
		t.Errorf("detach published %d times", got)
	}
}

// TestSharedStream: sessions inherit the engine's hub, audits flow in
// enhancement mode, and a hot-swap publishes an engine-level KindSwap.
func TestSharedStream(t *testing.T) {
	_, att := setup(t)
	spec := learn(t, att)
	hub := stream.NewHub()
	sub := hub.Subscribe()
	defer sub.Close()

	sh := checker.NewShared(spec,
		checker.WithObs(obs.NewRegistry()),
		checker.WithMode(checker.ModeEnhancement),
		checker.WithStream(hub))
	chk := sedspec.ProtectShared(att, sh, checker.WithHalt(func() {}))
	d := sedspec.NewDriver(att)

	// The engine auto-assigns the session ID (a plain attachment carries
	// -1), so attach must stamp a resolved, non-negative identity.
	ev, ok := sub.TryRecv()
	if !ok || ev.Kind != stream.KindAttach || ev.Session < 0 {
		t.Fatalf("attach = %+v, %v", ev, ok)
	}

	// An off-spec command raises a non-parameter anomaly, which warns
	// (not blocks) in enhancement mode.
	if _, err := d.Out8(testdev.PortCmd, testdev.CmdDiag); err != nil {
		t.Fatal(err)
	}
	ev, ok = sub.TryRecv()
	if !ok || ev.Kind != stream.KindAudit {
		t.Fatalf("audit = %+v, %v", ev, ok)
	}
	if ev.Audit == nil || ev.Audit.Strategy == "" {
		t.Errorf("audit payload %+v", ev.Audit)
	}

	if err := sh.Swap(spec); err != nil {
		t.Fatal(err)
	}
	ev, ok = sub.TryRecv()
	if !ok || ev.Kind != stream.KindSwap {
		t.Fatalf("swap = %+v, %v", ev, ok)
	}
	if ev.Session != -1 || ev.Swap == nil || ev.Swap.FromGen != 1 || ev.Swap.ToGen != 2 {
		t.Errorf("swap payload %+v session %d", ev.Swap, ev.Session)
	}

	chk.Close()
	if ev, ok := sub.TryRecv(); !ok || ev.Kind != stream.KindDetach {
		t.Fatalf("detach = %+v, %v (seen so far: %v)", ev, ok, kindsOf(hub.Recent(stream.MaskAll, 0)))
	}
}

// TestWithStreamNilDisables: WithStream(nil) keeps a checker entirely
// off every hub, including the process default.
func TestWithStreamNilDisables(t *testing.T) {
	_, att := setup(t)
	spec := learn(t, att)
	before := stream.Default().Seq()
	chk := sedspec.Protect(att, spec,
		checker.WithObs(obs.NewRegistry()),
		sedspec.WithStream(nil))
	if err := benign(sedspec.NewDriver(att)); err != nil {
		t.Fatal(err)
	}
	chk.Close()
	if after := stream.Default().Seq(); after != before {
		t.Errorf("disabled checker advanced the default hub %d -> %d", before, after)
	}
}
