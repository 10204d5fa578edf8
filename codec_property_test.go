// Codec property test: pushing a learned spec through the binary store
// codec must not change enforcement. For every CVE case study, in both
// modes, a Save→Load'd spec (EncodeBinary → DecodeBinary) must produce
// the identical differential anomaly stream, warning stream, and
// counters that the freshly learned spec produces.
package sedspec_test

import (
	"fmt"
	"testing"

	"sedspec"
	"sedspec/internal/checker"
	"sedspec/internal/core"
	"sedspec/internal/cvesim"
	"sedspec/internal/machine"
)

// replayPoCBinary is replayPoC with the spec round-tripped through the
// binary codec before sealing.
func replayPoCBinary(t *testing.T, p *cvesim.PoC, mode checker.Mode) diffRun {
	t.Helper()
	m := machine.New(machine.WithMemory(1 << 20))
	dev, aopts := p.Build()
	att := m.Attach(dev, aopts...)
	spec, err := sedspec.Learn(att, p.Train)
	if err != nil {
		t.Fatalf("learn: %v", err)
	}
	data, err := spec.EncodeBinary()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := core.DecodeBinary(att.Dev().Program(), data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	chk := sedspec.Protect(att, back,
		checker.WithMode(mode), checker.WithBudget(200_000))
	return captureRun(chk, p.Exploit(sedspec.NewDriver(att), m))
}

func TestBinaryCodecPreservesEnforcement(t *testing.T) {
	for _, p := range cvesim.All() {
		for _, mode := range []checker.Mode{checker.ModeProtection, checker.ModeEnhancement} {
			t.Run(fmt.Sprintf("%s/%s", p.CVE, mode), func(t *testing.T) {
				baseline := replayPoC(t, p, mode, diffBudgets[0].opts, threadedEngine)
				decoded := replayPoCBinary(t, p, mode)
				assertSameRun(t, "binary round trip", decoded, baseline)
			})
		}
	}
}
