package cvesim_test

import (
	"errors"
	"testing"

	"sedspec"
	"sedspec/internal/checker"
	"sedspec/internal/cvesim"
	"sedspec/internal/devices/ehci"
	"sedspec/internal/devices/fdc"
	"sedspec/internal/devices/pcnet"
	"sedspec/internal/devices/scsi"
	"sedspec/internal/devices/sdhci"
	"sedspec/internal/machine"
)

// TestGroundTruth verifies every PoC's exploit effect on an unprotected
// device (except the DoS case, whose "success" is state-based).
func TestGroundTruth(t *testing.T) {
	for _, p := range cvesim.All() {
		t.Run(p.CVE, func(t *testing.T) {
			out, err := p.RunUnprotected()
			if err != nil {
				t.Fatalf("RunUnprotected: %v", err)
			}
			if !out.Succeeded {
				t.Errorf("%s exploit did not reach the unprotected device", p.CVE)
			}
		})
	}
}

// fixedDevices builds each PoC's device with the upstream fix for its
// CVE applied.
var fixedDevices = map[string]func() machine.Device{
	"CVE-2015-3456":  func() machine.Device { return fdc.New(fdc.Options{FixVenom: true}) },
	"CVE-2020-14364": func() machine.Device { return ehci.New(ehci.Options{Fix14364: true}) },
	"CVE-2016-1568":  func() machine.Device { return ehci.New(ehci.Options{Fix1568: true}) },
	"CVE-2015-7504":  func() machine.Device { return pcnet.New(pcnet.Options{Fix7504: true}) },
	"CVE-2015-7512":  func() machine.Device { return pcnet.New(pcnet.Options{Fix7512: true}) },
	"CVE-2016-7909":  func() machine.Device { return pcnet.New(pcnet.Options{Fix7909: true}) },
	"CVE-2021-3409":  func() machine.Device { return sdhci.New(sdhci.Options{Fix3409: true}) },
	"CVE-2015-5158":  func() machine.Device { return scsi.New(scsi.Options{Fix5158: true}) },
	"CVE-2016-4439":  func() machine.Device { return scsi.New(scsi.Options{Fix4439: true}) },
}

// fixedProbes replaces a PoC's ground-truth probe where the upstream fix
// leaves the probed symptom in place. The Venom fix masks the FIFO store
// index but lets data_pos grow, so both builds are judged by whether the
// overflow reached the IRQ callback that follows the FIFO.
var fixedProbes = map[string]func(machine.Device, *machine.Machine) bool{
	"CVE-2015-3456": func(dev machine.Device, _ *machine.Machine) bool {
		p := dev.Program()
		return dev.State().FuncPtr(p.FieldIndex("irq_cb")) != uint64(p.HandlerIndex("fdctrl_raise_irq"))
	},
}

// TestFixedVariantDefeatsPoC builds each PoC's vulnerable device first
// and its fixed variant second, on unprotected machines: the exploit
// reaches the vulnerable device and not the fixed one. Device programs
// are cached per variant, so a cache that keyed two variants together
// would hand the fixed build the vulnerable program and fail here.
func TestFixedVariantDefeatsPoC(t *testing.T) {
	for _, p := range cvesim.All() {
		t.Run(p.CVE, func(t *testing.T) {
			newFixed := fixedDevices[p.CVE]
			if newFixed == nil {
				t.Fatalf("no fixed variant listed for %s", p.CVE)
			}
			vuln := *p
			if probe := fixedProbes[p.CVE]; probe != nil {
				vuln.Succeeded = probe
			}
			out, err := vuln.RunUnprotected()
			if err != nil {
				t.Fatalf("vulnerable: %v", err)
			}
			if !out.Succeeded {
				t.Fatalf("%s exploit did not reach the vulnerable device", p.CVE)
			}
			m := machine.New(machine.WithMemory(1 << 20))
			_, opts := p.Build()
			att := m.Attach(newFixed(), opts...)
			if err := p.Exploit(sedspec.NewDriver(att), m); err != nil && !errors.Is(err, machine.ErrBlocked) {
				t.Fatalf("fixed: %v", err)
			}
			if vuln.Succeeded(att.Dev(), m) {
				t.Errorf("%s exploit reached the fixed device", p.CVE)
			}
		})
	}
}

// TestDetectionMatrix reproduces the per-strategy columns of Table III:
// every expected strategy detects its PoC in isolation, and the documented
// miss stays missed under full protection.
func TestDetectionMatrix(t *testing.T) {
	strategies := []checker.Strategy{
		checker.StrategyParameter,
		checker.StrategyIndirectJump,
		checker.StrategyConditionalJump,
	}
	for _, p := range cvesim.All() {
		p := p
		t.Run(p.CVE, func(t *testing.T) {
			expected := make(map[checker.Strategy]bool, len(p.Expected))
			for _, s := range p.Expected {
				expected[s] = true
			}
			for _, s := range strategies {
				out, err := p.RunProtected(s)
				if err != nil {
					t.Fatalf("RunProtected(%v): %v", s, err)
				}
				if expected[s] && !out.Detected {
					t.Errorf("strategy %v should detect %s", s, p.CVE)
				}
				if expected[s] && out.Detected && out.Anomaly.Strategy != s {
					t.Errorf("anomaly strategy = %v, want %v", out.Anomaly.Strategy, s)
				}
			}
			// Full protection: detected iff any strategy is expected.
			out, err := p.RunProtected()
			if err != nil {
				t.Fatalf("RunProtected(all): %v", err)
			}
			if len(p.Expected) > 0 && !out.Detected {
				t.Errorf("%s should be detected under full protection", p.CVE)
			}
			if len(p.Expected) == 0 {
				if out.Detected {
					t.Errorf("%s should be missed (documented false negative)", p.CVE)
				}
				if !out.Succeeded {
					t.Errorf("%s exploit should succeed despite protection", p.CVE)
				}
			}
			if len(p.Expected) > 0 && out.Detected && out.Succeeded {
				t.Errorf("%s blocked but the exploit effect still reached the device", p.CVE)
			}
		})
	}
}

// TestBenignCleanUnderProtection re-runs each PoC's training workload
// under full protection: zero anomalies expected.
func TestBenignCleanUnderProtection(t *testing.T) {
	for _, p := range cvesim.All() {
		p := p
		t.Run(p.CVE, func(t *testing.T) {
			n, err := p.VerifyBenign()
			if err != nil {
				t.Fatalf("VerifyBenign: %v", err)
			}
			if n != 0 {
				t.Errorf("benign anomalies = %d, want 0", n)
			}
		})
	}
}

func TestByCVE(t *testing.T) {
	if cvesim.ByCVE("CVE-2015-3456") == nil {
		t.Error("Venom PoC missing")
	}
	if cvesim.ByCVE("CVE-0000-0000") != nil {
		t.Error("unknown CVE should return nil")
	}
	if len(cvesim.All()) != 9 {
		t.Errorf("PoC count = %d, want 9 (8 case studies + the miss)", len(cvesim.All()))
	}
}
