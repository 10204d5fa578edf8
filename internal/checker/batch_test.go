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

// captureReqs records the benign request stream and the device state it
// started from, so the stream can be replayed straight into checkers.
type captureReqs struct {
	reqs []*interp.Request
}

func (c *captureReqs) PreIO(_ machine.Device, req *interp.Request) error {
	cl := &interp.Request{Space: req.Space, Addr: req.Addr, Write: req.Write}
	if len(req.Data) > 0 {
		cl.Data = append([]byte(nil), req.Data...)
	}
	c.reqs = append(c.reqs, cl)
	return nil
}

// benignStream learns the testdev spec and captures the benign request
// stream plus the state snapshot it starts from.
func benignStream(t *testing.T) (*sedspec.Spec, []*interp.Request, *interp.State, *machine.Attached) {
	t.Helper()
	_, att := setup(t)
	spec := learn(t, att)
	start := att.Dev().State().Clone()
	cap := &captureReqs{}
	att.AddInterposer(cap)
	if err := benign(sedspec.NewDriver(att)); err != nil {
		t.Fatal(err)
	}
	att.ClearInterposers()
	if len(cap.reqs) == 0 {
		t.Fatal("empty capture")
	}
	return spec, cap.reqs, start, att
}

// TestPreIOBatchMatchesSequentialBenign replays the same benign stream
// through PreIO round by round and through PreIOBatch at several batch
// sizes: counters must be identical and every batched verdict clean.
func TestPreIOBatchMatchesSequentialBenign(t *testing.T) {
	spec, reqs, start, att := benignStream(t)
	opts := []checker.Option{checker.WithEnv(att)}

	seq := checker.New(spec, start, opts...)
	for _, req := range reqs {
		if err := seq.PreIO(nil, req); err != nil {
			t.Fatalf("sequential PreIO: %v", err)
		}
	}
	want := seq.Stats()
	if want.Rounds == 0 || want.StepsSimulated == 0 {
		t.Fatalf("degenerate baseline: %+v", want)
	}

	for _, size := range []int{1, 3, 7, len(reqs)} {
		chk := checker.New(spec, start, opts...)
		for i := 0; i < len(reqs); i += size {
			end := i + size
			if end > len(reqs) {
				end = len(reqs)
			}
			vs := chk.PreIOBatch(reqs[i:end])
			for k, v := range vs {
				if !v.Checked || v.Blocked || v.Err != nil {
					t.Fatalf("size=%d: request %d verdict %+v, want clean", size, i+k, v)
				}
			}
		}
		if got := chk.Stats(); got != want {
			t.Errorf("size=%d: stats diverge:\n  got:  %+v\n  want: %+v", size, got, want)
		}
	}
}

// diagStream builds a request stream with an untrained CmdDiag round in
// the middle of benign traffic.
func diagStream(reqs []*interp.Request) []*interp.Request {
	mid := len(reqs) / 2
	out := append([]*interp.Request(nil), reqs[:mid]...)
	out = append(out, interp.NewWrite(interp.SpacePIO, testdev.PortCmd, []byte{testdev.CmdDiag}))
	out = append(out, reqs[mid:]...)
	return out
}

// TestDispatchBatchWarningMatchesDirect delivers a stream containing an
// untrained command through DispatchBatch under enhancement mode and
// requires the full observable outcome — stats, warnings, device state —
// to match the same stream delivered round by round. The warning round
// short-circuits the batch (the shadow desynchronized), and PostIO's
// resync happens before the tail is re-presented.
func TestDispatchBatchWarningMatchesDirect(t *testing.T) {
	run := func(batch bool) (checker.Stats, []checker.Anomaly, []byte) {
		_, att := setup(t)
		spec := learn(t, att)
		chk := sedspec.Protect(att, spec, checker.WithMode(checker.ModeEnhancement))
		cap := &captureReqs{}
		att.AddInterposer(cap)
		if err := benign(sedspec.NewDriver(att)); err != nil {
			t.Fatal(err)
		}
		att.ClearInterposers()
		// Re-protect on a fresh machine so the replay starts from the
		// same state the capture did.
		_, att2 := setup(t)
		spec2 := learn(t, att2)
		chk = sedspec.Protect(att2, spec2, checker.WithMode(checker.ModeEnhancement))
		stream := diagStream(cap.reqs)
		if batch {
			if _, err := att2.DispatchBatch(stream); err != nil {
				t.Fatalf("DispatchBatch: %v", err)
			}
		} else {
			for _, req := range stream {
				if _, err := att2.DispatchDirect(req); err != nil {
					t.Fatalf("DispatchDirect: %v", err)
				}
			}
		}
		state := append([]byte(nil), att2.Dev().State().Bytes()...)
		return chk.Stats(), chk.Warnings(), state
	}

	ds, dw, dst := run(false)
	bs, bw, bst := run(true)
	if ds != bs {
		t.Errorf("stats diverge:\n  direct: %+v\n  batch:  %+v", ds, bs)
	}
	if len(dw) != len(bw) {
		t.Fatalf("warnings diverge: direct %d, batch %d", len(dw), len(bw))
	}
	for i := range dw {
		if dw[i].Strategy != bw[i].Strategy || dw[i].Round != bw[i].Round ||
			dw[i].Detail != bw[i].Detail {
			t.Errorf("warning %d diverges:\n  direct: %+v\n  batch:  %+v", i, dw[i], bw[i])
		}
	}
	if string(dst) != string(bst) {
		t.Error("device state diverges between direct and batched delivery")
	}
	if ds.Warnings == 0 {
		t.Error("stream should have warned")
	}
}

// TestDispatchBatchBlockedMatchesDirect delivers the same stream under
// protection mode: the untrained command must be blocked at the same
// round with the same anomaly whether delivered batched or round by
// round, and the requests after it must never reach the device.
func TestDispatchBatchBlockedMatchesDirect(t *testing.T) {
	run := func(batch bool) (checker.Stats, *checker.Anomaly, []byte) {
		_, att := setup(t)
		spec := learn(t, att)
		sedspec.Protect(att, spec)
		cap := &captureReqs{}
		att.AddInterposer(cap)
		if err := benign(sedspec.NewDriver(att)); err != nil {
			t.Fatal(err)
		}
		att.ClearInterposers()
		_, att2 := setup(t)
		spec2 := learn(t, att2)
		chk := sedspec.Protect(att2, spec2)
		stream := diagStream(cap.reqs)
		var anom *checker.Anomaly
		var err error
		if batch {
			_, err = att2.DispatchBatch(stream)
		} else {
			for _, req := range stream {
				if _, err = att2.DispatchDirect(req); err != nil {
					break
				}
			}
		}
		if !errors.Is(err, machine.ErrBlocked) || !errors.As(err, &anom) {
			t.Fatalf("want blocked anomaly, got %v", err)
		}
		state := append([]byte(nil), att2.Dev().State().Bytes()...)
		return chk.Stats(), anom, state
	}

	ds, da, dst := run(false)
	bs, ba, bst := run(true)
	if ds != bs {
		t.Errorf("stats diverge:\n  direct: %+v\n  batch:  %+v", ds, bs)
	}
	if da.Strategy != ba.Strategy || da.Round != ba.Round || da.Detail != ba.Detail {
		t.Errorf("blocking anomaly diverges:\n  direct: %+v\n  batch:  %+v", da, ba)
	}
	if string(dst) != string(bst) {
		t.Error("device state diverges between direct and batched delivery")
	}
	if ds.Blocked != 1 {
		t.Errorf("blocked = %d, want 1", ds.Blocked)
	}
}

// TestPreIOBatchEmpty checks the degenerate batch.
func TestPreIOBatchEmpty(t *testing.T) {
	spec, _, start, att := benignStream(t)
	chk := checker.New(spec, start, checker.WithEnv(att))
	if vs := chk.PreIOBatch(nil); len(vs) != 0 {
		t.Errorf("empty batch returned %d verdicts", len(vs))
	}
	if st := chk.Stats(); st.Rounds != 0 {
		t.Errorf("empty batch counted rounds: %+v", st)
	}
}
