package sedspec_test

import (
	"bytes"
	"fmt"
	"testing"

	"sedspec"
	"sedspec/internal/checker"
	"sedspec/internal/machine"
	"sedspec/internal/simclock"
	"sedspec/internal/workload"
)

// programRun is what one protected benign run leaves behind.
type programRun struct {
	err   string
	stats checker.Stats
	state []byte
}

// driveBenign brings a session's device up and runs ops benign ops under
// its checker, with a fixed workload seed.
func driveBenign(tg *workload.Target, att *machine.Attached, chk *checker.Checker, ops int) programRun {
	s := tg.NewSession(sedspec.NewDriver(att), simclock.NewRand(7))
	err := s.Prepare()
	for i := 0; err == nil && i < ops; i++ {
		err = s.Op()
	}
	run := programRun{stats: chk.Stats(), state: append([]byte(nil), att.Dev().State().Bytes()...)}
	if err != nil {
		run.err = err.Error()
	}
	return run
}

// TestCachedProgramSharedAcrossSessions drives, for every device, two
// pool sessions running one cached program concurrently under one
// shared checker engine. Each session owns its control structure, and
// both must end exactly where a serial session on its own machine ends:
// same verdict, same checker counters, same device state. Run under
// -race this also proves the shared program is only ever read.
func TestCachedProgramSharedAcrossSessions(t *testing.T) {
	const ops = 200
	for _, tg := range workload.Targets(true) {
		t.Run(tg.Name, func(t *testing.T) {
			lm := machine.New(machine.WithMemory(1 << 20))
			ldev, laopts := tg.Build()
			spec, err := sedspec.Learn(lm.Attach(ldev, laopts...), tg.Train)
			if err != nil {
				t.Fatalf("learn: %v", err)
			}
			sh := sedspec.NewSharedChecker(spec)

			bm := machine.New(machine.WithMemory(1 << 20))
			bdev, baopts := tg.Build()
			batt := bm.Attach(bdev, baopts...)
			baseline := driveBenign(tg, batt, sedspec.Protect(batt, spec), ops)
			if baseline.err != "" || baseline.stats.Rounds == 0 {
				t.Fatalf("serial run: error %q after %d checked rounds, want a clean run", baseline.err, baseline.stats.Rounds)
			}

			pool := machine.NewPool(2, tg.Build, machine.WithMemory(1<<20))
			a, b := pool.Session(0).Device(), pool.Session(1).Device()
			if a.Program() != b.Program() || a.Program() != ldev.Program() {
				t.Fatal("sessions of one device variant run different programs")
			}
			if a.State() == b.State() {
				t.Fatal("sessions share one control structure")
			}
			chks := make([]*checker.Checker, pool.Len())
			for i, s := range pool.Sessions() {
				chks[i] = sedspec.ProtectShared(s.Attached(), sh)
			}
			runs := make([]programRun, pool.Len())
			if err := pool.Run(func(s *machine.Session) error {
				runs[s.ID()] = driveBenign(tg, s.Attached(), chks[s.ID()], ops)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i, r := range runs {
				label := fmt.Sprintf("session %d", i)
				if r.err != baseline.err {
					t.Errorf("%s: error %q, serial run %q", label, r.err, baseline.err)
				}
				if r.stats != baseline.stats {
					t.Errorf("%s: stats %+v, serial run %+v", label, r.stats, baseline.stats)
				}
				if !bytes.Equal(r.state, baseline.state) {
					t.Errorf("%s: device state differs from the serial run's", label)
				}
			}
		})
	}
}
