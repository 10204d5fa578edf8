package workload_test

import (
	"testing"

	"sedspec"
	"sedspec/internal/devices/ehci"
	"sedspec/internal/devices/fdc"
	"sedspec/internal/devices/pcnet"
	"sedspec/internal/devices/scsi"
	"sedspec/internal/devices/sdhci"
	"sedspec/internal/machine"
	"sedspec/internal/simclock"
	"sedspec/internal/workload"
)

func TestEnvironmentSweeps(t *testing.T) {
	envs := workload.StorageEnvs()
	if len(envs) != 9 {
		t.Errorf("storage envs = %d, want 9 (3 formats x 3 modes)", len(envs))
	}
	seen := map[string]bool{}
	for _, e := range envs {
		seen[e.Format] = true
		seen[e.Mode] = true
		if e.PartitionMiB <= 0 || e.CacheKiB <= 0 {
			t.Errorf("degenerate env: %+v", e)
		}
	}
	for _, want := range []string{"FAT32", "NTFS", "EXT4", "RAID", "LVM", "JBOD"} {
		if !seen[want] {
			t.Errorf("sweep missing %s", want)
		}
	}

	nets := workload.NetworkEnvs()
	if len(nets) != 8 {
		t.Errorf("network envs = %d, want 8", len(nets))
	}
	jumbo, flow := false, false
	for _, e := range nets {
		jumbo = jumbo || e.JumboFrames
		flow = flow || e.FlowControl
	}
	if !jumbo || !flow {
		t.Error("sweep should vary jumbo frames and flow control")
	}
}

func TestModes(t *testing.T) {
	if len(workload.Modes()) != 3 {
		t.Error("want 3 interaction modes")
	}
	if workload.Sequential.String() != "sequential" ||
		workload.RandomDelay.String() != "random-with-delay" {
		t.Error("mode strings wrong")
	}
}

// TestTrainersAreDeterministic runs every trainer twice on fresh devices
// and compares the resulting device state — the spec store keys a learned
// spec by its corpus tag, so a corpus must learn the same spec every time.
func TestTrainersAreDeterministic(t *testing.T) {
	cfg := workload.TrainConfig{Light: true}
	cases := []struct {
		name  string
		fresh func() machine.Device
		opts  []machine.AttachOption
		train func(d *sedspec.Driver) error
	}{
		{"fdc", func() machine.Device { return fdc.New(fdc.Options{}) },
			[]machine.AttachOption{machine.WithPIO(0, fdc.PortCount)},
			func(d *sedspec.Driver) error { return workload.TrainFDC(d, cfg) }},
		{"pcnet", func() machine.Device { return pcnet.New(pcnet.Options{}) },
			[]machine.AttachOption{machine.WithPIO(0, pcnet.PortCount)},
			func(d *sedspec.Driver) error { return workload.TrainPCNet(d, cfg) }},
		{"sdhci", func() machine.Device { return sdhci.New(sdhci.Options{}) },
			[]machine.AttachOption{machine.WithMMIO(0, sdhci.RegionSize)},
			func(d *sedspec.Driver) error { return workload.TrainSDHCI(d, cfg) }},
		{"scsi", func() machine.Device { return scsi.New(scsi.Options{}) },
			[]machine.AttachOption{machine.WithPIO(0, scsi.PortCount)},
			func(d *sedspec.Driver) error { return workload.TrainSCSI(d, cfg) }},
		{"ehci", func() machine.Device { return ehci.New(ehci.Options{}) },
			[]machine.AttachOption{machine.WithMMIO(0, ehci.RegionSize)},
			func(d *sedspec.Driver) error { return workload.TrainEHCI(d, cfg) }},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			run := func() []byte {
				m := machine.New(machine.WithMemory(1 << 20))
				dev := c.fresh()
				att := m.Attach(dev, c.opts...)
				if err := c.train(sedspec.NewDriver(att)); err != nil {
					t.Fatalf("train: %v", err)
				}
				out := make([]byte, len(dev.State().Bytes()))
				copy(out, dev.State().Bytes())
				return out
			}
			a, b := run(), run()
			if string(a) != string(b) {
				t.Error("trainer left different device state across identical runs")
			}
		})
	}
}

// TestOpsRunCleanAfterSetup exercises each device's random benign op
// generator for a while: no faults, no errors.
func TestOpsRunCleanAfterSetup(t *testing.T) {
	t.Run("fdc", func(t *testing.T) {
		m := machine.New(machine.WithMemory(1 << 20))
		att := m.Attach(fdc.New(fdc.Options{}), machine.WithPIO(0, fdc.PortCount))
		g := fdc.NewGuest(sedspec.NewDriver(att))
		if err := g.Reset(); err != nil {
			t.Fatal(err)
		}
		rng := simclock.NewRand(3)
		for i := 0; i < 60; i++ {
			if err := workload.FDCOp(g, rng); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	})
	t.Run("pcnet", func(t *testing.T) {
		m := machine.New(machine.WithMemory(1 << 20))
		att := m.Attach(pcnet.New(pcnet.Options{}), machine.WithPIO(0, pcnet.PortCount))
		g := pcnet.NewGuest(sedspec.NewDriver(att))
		if err := g.Setup(0); err != nil {
			t.Fatal(err)
		}
		rng := simclock.NewRand(3)
		for i := 0; i < 60; i++ {
			if err := workload.PCNetOp(g, rng); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	})
	t.Run("sdhci", func(t *testing.T) {
		m := machine.New(machine.WithMemory(1 << 20))
		att := m.Attach(sdhci.New(sdhci.Options{}), machine.WithMMIO(0, sdhci.RegionSize))
		g := sdhci.NewGuest(sedspec.NewDriver(att))
		if err := g.InitCard(); err != nil {
			t.Fatal(err)
		}
		rng := simclock.NewRand(3)
		for i := 0; i < 60; i++ {
			if err := workload.SDHCIOp(g, rng); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	})
	t.Run("scsi", func(t *testing.T) {
		m := machine.New(machine.WithMemory(1 << 20))
		att := m.Attach(scsi.New(scsi.Options{}), machine.WithPIO(0, scsi.PortCount))
		g := scsi.NewGuest(sedspec.NewDriver(att))
		rng := simclock.NewRand(3)
		for i := 0; i < 60; i++ {
			if err := workload.SCSIOp(g, rng); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	})
	t.Run("ehci", func(t *testing.T) {
		m := machine.New(machine.WithMemory(1 << 20))
		att := m.Attach(ehci.New(ehci.Options{}), machine.WithMMIO(0, ehci.RegionSize))
		g := ehci.NewGuest(sedspec.NewDriver(att))
		rng := simclock.NewRand(3)
		for i := 0; i < 60; i++ {
			if err := workload.EHCIOp(g, rng); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	})
}
