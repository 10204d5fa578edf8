// Batched-delivery differentials: for every CVE case study the batched
// check path (PreIOBatch) must be byte-identical to per-round delivery
// (PreIO) in both modes and across batch sizes, and per-round delivery
// identical on the Checker and the Reference oracle. The
// exploit's request stream is captured once under live protection, then
// replayed machine-less through fresh checkers sharing a frozen
// environment, so the only variable between configurations is the
// delivery path — any divergence in journal epochs, counter batching,
// short-circuiting, or round numbering shows up as a stream or counter
// mismatch.
package sedspec_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"sedspec"
	"sedspec/internal/checker"
	"sedspec/internal/core"
	"sedspec/internal/cvesim"
	"sedspec/internal/interp"
	"sedspec/internal/machine"
	"sedspec/internal/obs/coverage"
)

// reqCapture records a deep copy of every request dispatched through an
// attachment, without interfering with delivery.
type reqCapture struct {
	reqs []*interp.Request
}

func (r *reqCapture) PreIO(_ machine.Device, req *interp.Request) error {
	cl := &interp.Request{Space: req.Space, Addr: req.Addr, Write: req.Write}
	if len(req.Data) > 0 {
		cl.Data = append([]byte(nil), req.Data...)
	}
	r.reqs = append(r.reqs, cl)
	return nil
}

// capturedPoC is one PoC's frozen replay material: the learned spec, the
// device control state at exploit start, the exploit's full request
// stream, and the attachment whose machine holds the exploit's guest
// memory (the checker environment for DMA reads during replay).
type capturedPoC struct {
	spec  *core.Spec
	start *interp.State
	reqs  []*interp.Request
	att   *machine.Attached
}

// captureExploit learns the PoC's spec, snapshots the trained device
// state, then runs the exploit under live protection with a capturing
// interposer installed ahead of the checker, so the recorded stream is
// exactly the request sequence the live checker saw — including the
// blocked request itself. Capturing under protection (not bare, and not
// warn-only enhancement) matters: the blocking anomaly halts the machine
// at the first detection, freezing guest memory with the exploit's
// malicious staging intact; a run that continues would let the device's
// own writebacks overwrite it, and the replay environment would no
// longer reproduce the anomaly. Both modes replay the same stream.
func captureExploit(t testing.TB, p *cvesim.PoC) *capturedPoC {
	t.Helper()
	m := machine.New(machine.WithMemory(1 << 20))
	dev, aopts := p.Build()
	att := m.Attach(dev, aopts...)
	spec, err := sedspec.Learn(att, p.Train)
	if err != nil {
		t.Fatalf("learn: %v", err)
	}
	start := att.Dev().State().Clone()
	cap := &reqCapture{}
	att.AddInterposer(cap)
	sedspec.Protect(att, spec, checker.WithMode(checker.ModeProtection), checker.WithBudget(200_000))
	// The exploit's outcome (blocked, halted, or ran out) is not the
	// subject here; the captured stream is the deterministic input the
	// replay configurations are pinned on.
	_ = p.Exploit(sedspec.NewDriver(att), m)
	if len(cap.reqs) == 0 {
		t.Fatal("exploit dispatched no requests")
	}
	return &capturedPoC{spec: spec, start: start, reqs: cap.reqs, att: att}
}

func (c *capturedPoC) cloneReqs() []*interp.Request {
	out := make([]*interp.Request, len(c.reqs))
	for i, req := range c.reqs {
		cl := &interp.Request{Space: req.Space, Addr: req.Addr, Write: req.Write}
		if len(req.Data) > 0 {
			cl.Data = append([]byte(nil), req.Data...)
		}
		out[i] = cl
	}
	return out
}

// streamRun is everything observable from one machine-less replay of a
// captured stream: the ordered blocking-anomaly stream, the warning
// stream, and the full counters.
type streamRun struct {
	blocked  []string
	stats    checker.Stats
	warnings []checker.Anomaly
	shadow   []byte
	coverage *coverage.Snapshot
}

// finish snapshots the engine's counters, warnings, shadow state and
// coverage into the run.
func (run *streamRun) finish(chk engine) {
	run.stats = chk.Stats()
	run.warnings = chk.Warnings()
	run.shadow = bytes.Clone(chk.Shadow().Bytes())
	run.coverage = coverageOf(chk)
}

// newReplayEngine builds a fresh engine for one replay configuration.
// No halt hook is installed: replay continues past blocking anomalies so
// every configuration processes the identical full stream.
func newReplayEngine(c *capturedPoC, mode checker.Mode, budget []checker.Option, build engineFunc) engine {
	opts := append([]checker.Option{checker.WithMode(mode), checker.WithEnv(c.att)}, budget...)
	return build(c.spec, c.start, opts...)
}

// replayPerRound is the baseline delivery: one PreIO per request, with
// the dispatcher's PostIO resync point emulated after each round.
func replayPerRound(t *testing.T, c *capturedPoC, mode checker.Mode, budget []checker.Option, build engineFunc) streamRun {
	t.Helper()
	chk := newReplayEngine(c, mode, budget, build)
	var run streamRun
	for _, req := range c.cloneReqs() {
		if err := chk.PreIO(nil, req); err != nil {
			var a *checker.Anomaly
			if !errors.As(err, &a) {
				t.Fatalf("non-anomaly block: %v", err)
			}
			run.blocked = append(run.blocked, describeAnomaly(a))
		}
		if chk.NeedsResync() {
			chk.ResyncShadow(c.start)
		}
	}
	run.finish(chk)
	return run
}

// replayBatched delivers the same stream through the Checker's
// PreIOBatch in windows of the given size, consuming checked prefixes and
// re-presenting the tail after each short-circuit — exactly the
// dispatcher's protocol, with the same emulated resync point between
// deliveries.
func replayBatched(t *testing.T, c *capturedPoC, mode checker.Mode, budget []checker.Option, size int) streamRun {
	t.Helper()
	chk := newReplayEngine(c, mode, budget, threadedEngine).(*checker.Checker)
	var run streamRun
	stream := c.cloneReqs()
	for i := 0; i < len(stream); {
		end := i + size
		if end > len(stream) {
			end = len(stream)
		}
		vs := chk.PreIOBatch(stream[i:end])
		checked := 0
		for checked < len(vs) && vs[checked].Checked {
			checked++
		}
		if checked == 0 {
			t.Fatalf("batch made no progress at request %d", i)
		}
		for k := 0; k < checked; k++ {
			if !vs[k].Blocked {
				continue
			}
			var a *checker.Anomaly
			if !errors.As(vs[k].Err, &a) {
				t.Fatalf("non-anomaly block: %v", vs[k].Err)
			}
			run.blocked = append(run.blocked, describeAnomaly(a))
		}
		i += checked
		if chk.NeedsResync() {
			chk.ResyncShadow(c.start)
		}
	}
	run.finish(chk)
	return run
}

// assertSameStream pins one replay's observable state to another's.
func assertSameStream(t *testing.T, label string, got, want streamRun) {
	t.Helper()
	if len(got.blocked) != len(want.blocked) {
		t.Fatalf("%s: blocked streams diverge: got %d %v, want %d %v",
			label, len(got.blocked), got.blocked, len(want.blocked), want.blocked)
	}
	for i := range got.blocked {
		if got.blocked[i] != want.blocked[i] {
			t.Errorf("%s: blocked anomaly %d diverges:\n  got:  %s\n  want: %s",
				label, i, got.blocked[i], want.blocked[i])
		}
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

// TestBatchedDifferential replays every case study's captured exploit
// stream under per-round delivery with both engines and under batched
// delivery with the threaded engine at batch sizes 1, 4, 16, and
// whole-stream, in both modes and at both budgets. All configurations
// must produce the identical anomaly stream, warning stream, counters and
// shadow state, and the threaded runs the identical coverage — per-round
// threaded is the baseline.
func TestBatchedDifferential(t *testing.T) {
	for _, p := range cvesim.All() {
		p := p
		t.Run(p.CVE, func(t *testing.T) {
			cap := captureExploit(t, p)
			sizes := []int{1, 4, 16, len(cap.reqs)}
			for _, mode := range []checker.Mode{checker.ModeProtection, checker.ModeEnhancement} {
				t.Run(fmt.Sprint(mode), func(t *testing.T) {
					for _, b := range diffBudgets {
						t.Run(b.name, func(t *testing.T) {
							baseline := replayPerRound(t, cap, mode, b.opts, threadedEngine)
							total := baseline.stats.ParamAnomalies +
								baseline.stats.IndirectAnomalies + baseline.stats.CondAnomalies
							if p.Expected != nil && total == 0 {
								t.Fatal("replayed exploit raised no anomalies; differential is vacuous")
							}
							assertSameStream(t, "per-round/reference",
								replayPerRound(t, cap, mode, b.opts, referenceEngine), baseline)
							for _, size := range sizes {
								assertSameStream(t, fmt.Sprintf("batched/threaded/size=%d", size),
									replayBatched(t, cap, mode, b.opts, size), baseline)
							}
						})
					}
				})
			}
		})
	}
}
