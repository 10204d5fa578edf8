// Package cvesim packages the proof-of-concept exploit streams of the
// paper's case studies (§VII-B2) so that the experiment harness can replay
// them against protected and unprotected devices. Each PoC carries the CVE
// identity, the QEMU version the paper used, the check strategies the
// paper reports detecting it (Table III), the exploit itself, and a
// ground-truth probe for whether the exploit's effect reached the device.
package cvesim

import (
	"errors"

	"sedspec"
	"sedspec/internal/checker"
	"sedspec/internal/machine"
	"sedspec/internal/workload"
)

// PoC is one replayable case study.
type PoC struct {
	// CVE is the vulnerability identifier.
	CVE string
	// Device names the emulated device.
	Device string
	// QEMU is the QEMU version the paper evaluated against.
	QEMU string
	// Expected lists the strategies Table III reports detecting the
	// exploit (empty for the documented miss, CVE-2016-1568).
	Expected []checker.Strategy

	// Exploit drives the proof of concept. A blocked I/O surfaces as an
	// error wrapping a *checker.Anomaly.
	Exploit func(d *sedspec.Driver, m *machine.Machine) error
	// Succeeded probes the device/machine for the exploit's effect.
	Succeeded func(dev machine.Device, m *machine.Machine) bool
}

// Outcome is the result of replaying a PoC.
type Outcome struct {
	CVE       string
	Strategy  checker.Strategy // strategy under test (0 = all)
	Detected  bool
	Anomaly   *checker.Anomaly
	Succeeded bool // ground truth: exploit effect reached the device
	// Spec is the specification the protected run enforced (nil for
	// unprotected runs) — the generation an Anomaly can be audited
	// against with checker.TrainingCoverage.
	Spec *sedspec.Spec
	// Checker is the protected run's checker (nil for unprotected runs);
	// its coverage map records which spec structure the run exercised.
	Checker *checker.Checker
}

// Build constructs a fresh vulnerable device and its attachment options:
// those of the device's light benign target.
func (p *PoC) Build() (machine.Device, []machine.AttachOption) {
	return workload.TargetByName(p.Device, true).Build()
}

// Train runs the PoC's training corpus: its device's light benign corpus.
func (p *PoC) Train(d *sedspec.Driver) error { return workload.TargetByName(p.Device, true).Train(d) }

// attach builds a machine with the PoC's device.
func (p *PoC) attach() (*machine.Machine, *machine.Attached) {
	m := machine.New(machine.WithMemory(1 << 20))
	dev, opts := p.Build()
	att := m.Attach(dev, opts...)
	return m, att
}

// RunUnprotected replays the exploit with no checker, returning the
// ground-truth outcome.
func (p *PoC) RunUnprotected() (Outcome, error) {
	m, att := p.attach()
	err := p.Exploit(sedspec.NewDriver(att), m)
	if err != nil && !errors.Is(err, machine.ErrBlocked) {
		return Outcome{}, err
	}
	return Outcome{
		CVE:       p.CVE,
		Succeeded: p.Succeeded(att.Dev(), m),
	}, nil
}

// RunProtected learns a specification from the PoC's training routine,
// attaches a checker restricted to the given strategies (none = all
// three), and replays the exploit.
func (p *PoC) RunProtected(strategies ...checker.Strategy) (Outcome, error) {
	m, att := p.attach()
	spec, err := sedspec.Learn(att, p.Train)
	if err != nil {
		return Outcome{}, err
	}
	var opts []checker.Option
	if len(strategies) > 0 {
		opts = append(opts, checker.WithStrategies(strategies...))
	}
	opts = append(opts, checker.WithBudget(200_000))
	chk := sedspec.Protect(att, spec, opts...)

	out := Outcome{CVE: p.CVE, Spec: spec, Checker: chk}
	if len(strategies) == 1 {
		out.Strategy = strategies[0]
	}
	err = p.Exploit(sedspec.NewDriver(att), m)
	var anom *checker.Anomaly
	if errors.As(err, &anom) {
		out.Detected = true
		out.Anomaly = anom
	} else if err != nil && !errors.Is(err, machine.ErrBlocked) && !errors.Is(err, machine.ErrHalted) {
		return Outcome{}, err
	}
	out.Succeeded = p.Succeeded(att.Dev(), m)
	return out, nil
}

// VerifyBenign learns a spec and replays the PoC's training routine under
// full protection, returning the number of anomalies (expected zero).
func (p *PoC) VerifyBenign() (int, error) {
	_, att := p.attach()
	spec, err := sedspec.Learn(att, p.Train)
	if err != nil {
		return 0, err
	}
	chk := sedspec.Protect(att, spec)
	if err := p.Train(sedspec.NewDriver(att)); err != nil {
		return 0, err
	}
	st := chk.Stats()
	return int(st.ParamAnomalies + st.IndirectAnomalies + st.CondAnomalies), nil
}

// All returns the paper's eight case studies plus the documented miss.
func All() []*PoC {
	return []*PoC{
		Venom(),
		EHCI14364(),
		PCNet7504(),
		PCNet7512(),
		PCNet7909(),
		SDHCI3409(),
		SCSI5158(),
		SCSI4439(),
		EHCI1568(),
	}
}

// ByCVE returns the PoC with the given identifier, or nil.
func ByCVE(id string) *PoC {
	for _, p := range All() {
		if p.CVE == id {
			return p
		}
	}
	return nil
}
