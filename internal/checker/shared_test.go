package checker_test

import (
	"sync"
	"testing"

	"sedspec"
	"sedspec/internal/checker"
	"sedspec/internal/devices/testdev"
	"sedspec/internal/interp"
	"sedspec/internal/machine"
)

// testdevBuild is a session BuildFunc for the test device.
func testdevBuild() (machine.Device, []machine.AttachOption) {
	return testdev.New(testdev.Options{}),
		[]machine.AttachOption{machine.WithPIO(testdev.PortCmd, testdev.PortCount)}
}

func TestSharedSessionsConcurrent(t *testing.T) {
	_, att := setup(t)
	spec := learn(t, att)
	sh := sedspec.NewSharedChecker(spec)
	if sh.Mode() != checker.ModeProtection {
		t.Fatalf("default mode = %v", sh.Mode())
	}
	if sh.Sealed() == nil {
		t.Fatal("shared engine lost its sealed spec")
	}

	const n = 8
	p := machine.NewPool(n, testdevBuild)
	var chks [n]*checker.Checker
	for i, s := range p.Sessions() {
		chks[i] = sedspec.ProtectShared(s.Attached(), sh)
	}
	if sh.Sessions() != n {
		t.Fatalf("Sessions = %d, want %d", sh.Sessions(), n)
	}
	if err := p.Run(func(s *machine.Session) error {
		return benign(sedspec.NewDriver(s.Attached()))
	}); err != nil {
		t.Fatal(err)
	}

	// Every session ran the same benign workload; the aggregate must be
	// exactly n times one session's counters, with zero anomalies.
	one := chks[0].Stats()
	if one.Rounds == 0 || one.StepsSimulated == 0 {
		t.Fatalf("session stats not accumulating: %+v", one)
	}
	for i, c := range chks {
		if c.Stats() != one {
			t.Errorf("session %d stats diverge: %+v vs %+v", i, c.Stats(), one)
		}
	}
	agg := sh.Stats()
	if agg.Rounds != n*one.Rounds || agg.StepsSimulated != n*one.StepsSimulated {
		t.Errorf("aggregate = %+v, want %d x %+v", agg, n, one)
	}
	if agg.Blocked != 0 || agg.ParamAnomalies != 0 {
		t.Errorf("benign workload produced anomalies: %+v", agg)
	}

	// Close folds counters into the retired bank: the aggregate is stable
	// across session churn.
	for _, c := range chks {
		c.Close()
		c.Close() // idempotent
	}
	if sh.Sessions() != 0 {
		t.Fatalf("Sessions after close = %d", sh.Sessions())
	}
	if got := sh.Stats(); got != agg {
		t.Errorf("retired aggregate %+v != live aggregate %+v", got, agg)
	}
}

func TestSharedWarningsAggregate(t *testing.T) {
	_, att := setup(t)
	spec := learn(t, att)
	sh := sedspec.NewSharedChecker(spec, checker.WithMode(checker.ModeEnhancement))

	const n = 4
	p := machine.NewPool(n, testdevBuild)
	var chks [n]*checker.Checker
	for i, s := range p.Sessions() {
		chks[i] = sedspec.ProtectShared(s.Attached(), sh)
	}
	if err := p.Run(func(s *machine.Session) error {
		d := sedspec.NewDriver(s.Attached())
		_, err := d.Out8(testdev.PortCmd, testdev.CmdDiag) // off-spec: warns
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for i, c := range chks {
		if len(c.Warnings()) != 1 {
			t.Errorf("session %d warnings = %d, want 1", i, len(c.Warnings()))
		}
	}
	if got := len(sh.Warnings()); got != n {
		t.Errorf("aggregate warnings = %d, want %d", got, n)
	}
	// Retire half the sessions: warnings survive in the retired buffer.
	chks[0].Close()
	chks[1].Close()
	if got := len(sh.Warnings()); got != n {
		t.Errorf("aggregate warnings after churn = %d, want %d", got, n)
	}
	if sh.Stats().Warnings != n {
		t.Errorf("warning counter = %d, want %d", sh.Stats().Warnings, n)
	}
}

func TestSharedScratchRecycled(t *testing.T) {
	_, att := setup(t)
	spec := learn(t, att)
	sh := sedspec.NewSharedChecker(spec)

	// Run one session to grow its arenas, retire it, then verify a
	// follow-up session checks benign traffic without growing fresh
	// arenas: the steady-state loop plus pooled scratch allocate nothing.
	warm := func() {
		m := machine.New()
		dev := testdev.New(testdev.Options{})
		a := m.Attach(dev, machine.WithPIO(testdev.PortCmd, testdev.PortCount))
		c := sedspec.ProtectShared(a, sh)
		if err := benign(sedspec.NewDriver(a)); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	warm()
	warm()

	m := machine.New()
	dev := testdev.New(testdev.Options{})
	a := m.Attach(dev, machine.WithPIO(testdev.PortCmd, testdev.PortCount))
	c := sedspec.ProtectShared(a, sh)
	d := sedspec.NewDriver(a)
	if err := benign(d); err != nil { // settle steady state
		t.Fatal(err)
	}
	// Measure the per-session check loop alone, the path every checked
	// I/O pays: the interposer's PreIO on a captured request, and
	// PreIOBatch on a burst of them. The first call of each warms it (the
	// batch grows its verdict buffer).
	req := interp.NewWrite(interp.SpacePIO, testdev.PortCmd, []byte{testdev.CmdStatus})
	burst := []*interp.Request{req, req, req, req, req, req, req, req}
	for _, tc := range []struct {
		name  string
		check func()
	}{
		{"PreIO", func() {
			if err := c.PreIO(nil, req); err != nil {
				t.Fatal(err)
			}
		}},
		{"PreIOBatch", func() {
			for k, v := range c.PreIOBatch(burst) {
				if !v.Checked || v.Blocked {
					t.Fatalf("batched request %d verdict %+v, want clean", k, v)
				}
			}
		}},
	} {
		tc.check()
		if allocs := testing.AllocsPerRun(100, tc.check); allocs != 0 {
			t.Errorf("%s: steady-state check loop allocates %.1f/op, want 0", tc.name, allocs)
		}
	}
	c.Close()
}

func TestSharedStatsWhileRunning(t *testing.T) {
	// Aggregate Stats/Warnings readers race benignly with running
	// sessions; under -race this proves the atomics/locks are sound.
	_, att := setup(t)
	spec := learn(t, att)
	sh := sedspec.NewSharedChecker(spec)
	p := machine.NewPool(4, testdevBuild)
	for _, s := range p.Sessions() {
		sedspec.ProtectShared(s.Attached(), sh)
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
				_ = sh.Stats()
				_ = sh.Warnings()
			}
		}
	}()
	if err := p.Run(func(s *machine.Session) error {
		return benign(sedspec.NewDriver(s.Attached()))
	}); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if sh.Stats().Rounds == 0 {
		t.Error("no rounds recorded")
	}
}
