// Package bench regenerates every table and figure of the paper's
// evaluation (§VII): the device-state parameter selection (Table I), false
// positives over time (Table II), the detection/FPR/coverage matrix
// (Table III), storage throughput and latency under protection (Figures 3
// and 4), and network bandwidth and ping latency (Figure 5), plus the
// ablations called out in DESIGN.md. The evaluated devices are
// workload.Targets.
package bench

import (
	"fmt"

	"sedspec"
	"sedspec/internal/machine"
	"sedspec/internal/workload"
)

// setup builds a machine and attaches the target's device.
func setup(t *workload.Target) (*machine.Machine, *machine.Attached) {
	m := machine.New(machine.WithMemory(1 << 20))
	dev, opts := t.Build()
	att := m.Attach(dev, opts...)
	return m, att
}

// learn builds the target's execution specification.
func learn(t *workload.Target, att *machine.Attached) (*sedspec.Spec, error) {
	spec, err := sedspec.Learn(att, t.Train)
	if err != nil {
		return nil, fmt.Errorf("bench: learn %s: %w", t.Name, err)
	}
	return spec, nil
}
