package sdhci

import (
	"testing"

	"sedspec/internal/devices/devtest"
	"sedspec/internal/machine"
)

// TestProgramCache pins that instances of one variant share a program
// and own their state, that each Fix variant has its own program, and
// that an uncached build hashes the same as the cached one.
func TestProgramCache(t *testing.T) {
	variants := []Options{
		{},
		{Fix3409: true},
	}
	devtest.CheckProgramCache(t, variants, func(o Options) machine.Device { return New(o) }, build)
}
