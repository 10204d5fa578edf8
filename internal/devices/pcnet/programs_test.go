package pcnet

import (
	"testing"

	"sedspec/internal/devices/devtest"
	"sedspec/internal/machine"
)

// TestProgramCache pins that instances of one variant share a program
// and own their state, that each Fix variant has its own program, and
// that an uncached build hashes the same as the cached one.
func TestProgramCache(t *testing.T) {
	var variants []Options
	for i := 0; i < 8; i++ {
		variants = append(variants, Options{Fix7504: i&1 != 0, Fix7512: i&2 != 0, Fix7909: i&4 != 0})
	}
	devtest.CheckProgramCache(t, variants, func(o Options) machine.Device { return New(o) }, build)
}
