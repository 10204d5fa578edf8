package scsi

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
		{Fix4439: true},
		{Fix5158: true},
		{Fix4439: true, Fix5158: true},
	}
	devtest.CheckProgramCache(t, variants, func(o Options) machine.Device { return New(o) }, build)
}
