package checker_test

import (
	"runtime"
	"sync"
	"testing"

	"sedspec"
	"sedspec/internal/checker"
	"sedspec/internal/devices/testdev"
	"sedspec/internal/fuzzer"
	"sedspec/internal/interp"
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
