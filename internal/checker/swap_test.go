package checker_test

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"sedspec"
	"sedspec/internal/checker"
	"sedspec/internal/devices/devutil"
	"sedspec/internal/devices/testdev"
	"sedspec/internal/fuzzer"
	"sedspec/internal/interp"
	"sedspec/internal/ir"
	"sedspec/internal/machine"
	"sedspec/internal/obs"
)

// Hot-swap integration: compatibility gating, and the RCU publication
// path raced against the lock-free check path.

func TestSwapRejectsIncompatibleSpecs(t *testing.T) {
	_, att := setup(t)
	spec := learn(t, att)
	sh := checker.NewShared(spec)

	// Wrong device name.
	bad := *spec
	bad.Device = "other"
	if err := sh.Swap(&bad); err == nil {
		t.Error("swap accepted a spec for a different device")
	}

	// Same device name, different program geometry: the patched testdev
	// variant adds a bounds-check block to the data path.
	m := machine.New()
	pdev := testdev.New(testdev.Options{FixVenom: true})
	patt := m.Attach(pdev, machine.WithPIO(testdev.PortCmd, testdev.PortCount))
	pspec, err := sedspec.Learn(patt, benign)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Swap(pspec); err == nil {
		t.Error("swap accepted a structurally incompatible program")
	}
	if sh.Generation() != 1 || sh.SwapCount() != 0 {
		t.Errorf("rejected swaps must not advance the generation: gen=%d swaps=%d",
			sh.Generation(), sh.SwapCount())
	}

	// An equivalent spec learned against a fresh build of the same program
	// is compatible (the structural path, not the pointer fast path).
	m2 := machine.New()
	dev2 := testdev.New(testdev.Options{})
	att2 := m2.Attach(dev2, machine.WithPIO(testdev.PortCmd, testdev.PortCount))
	spec2, err := sedspec.Learn(att2, benign)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Swap(spec2); err != nil {
		t.Errorf("swap rejected an equivalent spec: %v", err)
	}
	if sh.Generation() != 2 {
		t.Errorf("generation after swap = %d, want 2", sh.Generation())
	}
}

// TestSwapUnderHammer races continuous hot-swaps against four sessions of
// raw random I/O and a metrics-snapshot reader. Under -race this is the
// data-race-freedom proof for the swap path; after quiescing, accounting
// must balance exactly as if no swap had happened.
func TestSwapUnderHammer(t *testing.T) {
	_, att := setup(t)
	specA := learn(t, att)
	m2 := machine.New()
	dev2 := testdev.New(testdev.Options{})
	att2 := m2.Attach(dev2, machine.WithPIO(testdev.PortCmd, testdev.PortCount))
	specB, err := sedspec.Learn(att2, benign)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	sh := checker.NewShared(specA,
		checker.WithObs(reg),
		checker.WithMode(checker.ModeEnhancement))

	const n = 4
	p := machine.NewPool(n, testdevBuild)
	chks := make([]*checker.Checker, n)
	for i, s := range p.Sessions() {
		chks[i] = sedspec.ProtectShared(s.Attached(), sh, checker.WithHalt(func() {}))
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	var swapErr error
	wg.Add(2)
	go func() { // swapper
		defer wg.Done()
		specs := [2]*sedspec.Spec{specB, specA}
		for i := 0; ; i++ {
			if err := sh.Swap(specs[i%2]); err != nil {
				swapErr = err
				return
			}
			runtime.Gosched()
			select {
			case <-done:
				if i+1 >= 100 {
					return
				}
			default:
			}
		}
	}()
	go func() { // metrics reader
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				snap := reg.Snapshot().Row("", specA.Device)
				if snap.Rounds < snap.Anomalies() {
					t.Errorf("mid-swap snapshot inconsistent: %d rounds < %d anomalies",
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
	close(done)
	wg.Wait()
	if swapErr != nil {
		t.Fatalf("Swap failed mid-hammer: %v", swapErr)
	}
	if sh.SwapCount() < 100 {
		t.Errorf("swaps = %d, want >= 100", sh.SwapCount())
	}

	// Exact accounting across the swaps: registry == sum of sessions, and
	// the engine reports every swap it applied.
	want := chks[0].Snapshot()
	for _, c := range chks[1:] {
		want = want.Merge(c.Snapshot())
	}
	if got := reg.Snapshot().Row("", specA.Device); got != want {
		t.Errorf("registry snapshot != sessions:\n  got:  %+v\n  want: %+v", got, want)
	}
	if es := sh.EngineStatus(); es.Swaps != sh.SwapCount() || es.Generation != sh.SwapCount()+1 {
		t.Errorf("engine status swaps %d gen %d, want %d and %d", es.Swaps, es.Generation, sh.SwapCount(), sh.SwapCount()+1)
	}
	if sh.Stats().Rounds != want.Rounds {
		t.Errorf("engine rounds %d != recorder rounds %d", sh.Stats().Rounds, want.Rounds)
	}

	// Coverage retention after the race: only the current generation and
	// the ones the quiesced sessions still run, then only the current one.
	checkRetention(t, "after hammer", sh, chks)
	for _, c := range chks {
		c.Close()
	}
	checkRetention(t, "after close", sh, nil)
}

// buildSpanDev builds a device whose command window spans rounds: a
// port-0 write decides command 1 or 2 and leaves it active, and the next
// port-1 write routes its data byte to arm d0 or d1, either of which
// ends the command.
func buildSpanDev() *ir.Program {
	b := ir.NewBuilder("spandev")
	last := b.Int("last", ir.W8)

	h := b.Handler("span_write")
	e := h.Block("entry").Entry()
	addr := e.IOAddr("addr = req->addr")
	e.Switch(addr, "switch (addr)", "out", ir.Case(0, "cmd"), ir.Case(1, "data"))

	c := h.Block("cmd").CmdDecision()
	cv := c.IOIn(ir.W8, "cmd = ioread8()")
	c.Switch(cv, "switch (cmd)", "out", ir.Case(1, "out"), ir.Case(2, "out"))

	d := h.Block("data")
	v := d.IOIn(ir.W8, "v = ioread8()")
	d.Switch(v, "switch (v)", "out", ir.Case(0, "d0"), ir.Case(1, "d1"))
	for k, name := range []string{"d0", "d1"} {
		arm := h.Block(name).CmdEnd()
		arm.Store(last, arm.Const(uint64(k), "k"), "s->last = k")
		arm.Jump("out", "goto out")
	}
	h.Block("out").Exit().Halt("return")

	b.Dispatch("span_write")
	return devutil.MustBuild(b)
}

// TestSwapMidCommandRebindsAccess adopts a generation that changes
// command 1's access set between the command's decision round and its
// data round: the data round's goto must be judged by the adopted
// generation's table, in both directions.
func TestSwapMidCommandRebindsAccess(t *testing.T) {
	prog := buildSpanDev()
	type io struct{ port, v byte }
	learnSpan := func(corpus []io) *sedspec.Spec {
		m := machine.New()
		att := m.Attach(devutil.NewBase(prog, nil), machine.WithPIO(0, 2))
		spec, err := sedspec.Learn(att, func(d *sedspec.Driver) error {
			for _, w := range corpus {
				if _, err := d.Out8(uint64(w.port), w.v); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	// Under narrow, command 1 reaches only d0 (d1 is trained under
	// command 2); wide also trains d1 under command 1.
	narrow := learnSpan([]io{{0, 1}, {1, 0}, {0, 2}, {1, 1}})
	wide := learnSpan([]io{{0, 1}, {1, 0}, {0, 1}, {1, 1}, {0, 2}, {1, 1}})

	for _, tc := range []struct {
		name       string
		from, to   *sedspec.Spec
		wantDenied bool
	}{
		{"narrow-to-wide", narrow, wide, false},
		{"wide-to-narrow", wide, narrow, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sh := checker.NewShared(tc.from)
			sess := sh.NewSession(interp.NewState(prog))
			defer sess.Close()
			if err := sess.PreIO(nil, interp.NewWrite(interp.SpacePIO, 0, []byte{1})); err != nil {
				t.Fatalf("command round: %v", err)
			}
			if err := sh.Swap(tc.to); err != nil {
				t.Fatal(err)
			}
			err := sess.PreIO(nil, interp.NewWrite(interp.SpacePIO, 1, []byte{1}))
			if sh.Generation() != 2 {
				t.Fatalf("generation = %d, want 2", sh.Generation())
			}
			var anom *checker.Anomaly
			denied := errors.As(err, &anom) && anom.Strategy == checker.StrategyConditionalJump && anom.EdgeKind == "access"
			if denied != tc.wantDenied || (!denied && err != nil) {
				t.Errorf("data round after adoption: err = %v, want access denial %v", err, tc.wantDenied)
			}
		})
	}
}
