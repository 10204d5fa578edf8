// Command sedfuzz exercises an emulated device two ways: a raw random I/O
// hammer (robustness: the emulator must stay sound no matter what hits the
// ports), and the guided benign-plus-rare fuzz used to approximate the
// effective-coverage metric of Table III.
//
// Usage:
//
//	sedfuzz -device fdc|ehci|pcnet|sdhci|scsi [-n 20000] [-seed 1]
//	        [-spec-in spec.bin]
//
// With -spec-in the raw hammer additionally runs under enforcement: the
// binary specification (written by sedspec -spec-out) is loaded and an
// ES-Checker in enhancement mode rides the same random I/O, so the
// checker itself is fuzzed for robustness and the run reports how much
// of the garbage the spec flags.
package main

import (
	"flag"
	"fmt"
	"os"

	"sedspec"
	"sedspec/internal/bench"
	"sedspec/internal/checker"
	"sedspec/internal/cmdutil"
	"sedspec/internal/core"
	"sedspec/internal/fuzzer"
	"sedspec/internal/interp"
	"sedspec/internal/machine"
	"sedspec/internal/simclock"
	"sedspec/internal/workload"
)

func main() {
	device := flag.String("device", "fdc", "device to fuzz")
	n := flag.Int("n", 20000, "raw random requests to hammer")
	seed := flag.Uint64("seed", 1, "random seed")
	specIn := flag.String("spec-in", "", "hammer under enforcement of this binary specification (enhancement mode)")
	listen := flag.String("listen", "", "serve the introspection endpoints (/healthz /fleet /metrics /journal /debug/pprof) on this address")
	hold := flag.Bool("hold", false, "after the run, keep serving -listen until interrupted (for probing a finished run)")
	flag.Parse()

	addr := *listen
	serving := false
	if addr != "" {
		if _, err := cmdutil.ServeIntrospection(addr); err != nil {
			fmt.Fprintln(os.Stderr, "sedfuzz: listen:", err)
			os.Exit(1)
		}
		serving = true
	}
	if err := run(*device, *n, *seed, *specIn); err != nil {
		fmt.Fprintln(os.Stderr, "sedfuzz:", err)
		os.Exit(1)
	}
	if *hold && serving {
		fmt.Println("holding for introspection; interrupt to exit")
		select {}
	}
}

func run(device string, n int, seed uint64, specIn string) error {
	target := workload.TargetByName(device, true)
	if target == nil {
		return fmt.Errorf("unknown device %q", device)
	}

	// Raw hammer, optionally with an enforcing checker riding along. The
	// checker runs in enhancement mode with a no-op halt hook so blocking
	// anomalies are counted rather than stopping the hammer.
	m := machine.New(machine.WithMemory(1 << 20))
	dev, opts := target.Build()
	att := m.Attach(dev, opts...)
	var chk *checker.Checker
	if specIn != "" {
		data, err := os.ReadFile(specIn)
		if err != nil {
			return err
		}
		spec, err := core.DecodeBinary(dev.Program(), data)
		if err != nil {
			return fmt.Errorf("%s: %w", specIn, err)
		}
		chk = sedspec.Protect(att, spec,
			checker.WithMode(checker.ModeEnhancement),
			checker.WithHalt(func() {}))
	}
	space, base, size := windowOf(att)
	completed, faulted := fuzzer.Hammer(att, space, base, size, seed, n)
	fmt.Printf("hammer: %d raw requests, %d completed, %d device faults (emulator stayed sound)\n",
		n, completed, faulted)
	if chk != nil {
		st := chk.Stats()
		fmt.Printf("enforcement: %d rounds checked, %d blocked (param), %d warned (indirect %d, cond %d)\n",
			st.Rounds, st.ParamAnomalies, st.IndirectAnomalies+st.CondAnomalies,
			st.IndirectAnomalies, st.CondAnomalies)
	}

	// Guided coverage fuzz.
	m2 := machine.New(machine.WithMemory(1 << 20))
	dev2, opts2 := target.Build()
	att2 := m2.Attach(dev2, opts2...)
	rng := simclock.NewRand(seed)
	s := target.NewSession(sedspec.NewDriver(att2), rng)
	blocks, err := fuzzer.Blocks(att2, func() error {
		if err := s.Prepare(); err != nil {
			return err
		}
		for i := 0; i < 800; i++ {
			var err error
			if rng.Bool(0.04) {
				err = s.Rare()
			} else {
				err = s.Op()
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	total := 0
	prog := dev2.Program()
	for hi := range prog.Handlers {
		if prog.Handlers[hi].Region == 0 { // RegionDevice
			total += len(prog.Handlers[hi].Blocks)
		}
	}
	fmt.Printf("guided fuzz: %d/%d device blocks reached (%.1f%%)\n",
		len(blocks), total, 100*float64(len(blocks))/float64(total))

	cov, err := bench.EffectiveCoverage(target, 800, seed)
	if err != nil {
		return err
	}
	fmt.Printf("effective coverage of the learned specification: %.1f%%\n", cov*100)
	return nil
}

// windowOf recovers the device's bus window for the raw hammer.
func windowOf(att *machine.Attached) (interp.Space, uint64, uint64) {
	switch att.Dev().Name() {
	case "sdhci", "ehci":
		return interp.SpaceMMIO, 0, 0x60
	default:
		return interp.SpacePIO, 0, 0x20
	}
}
