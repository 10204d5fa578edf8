// Package devtest holds checks shared by the device packages' tests.
package devtest

import (
	"bytes"
	"testing"

	"sedspec/internal/ir"
	"sedspec/internal/machine"
	"sedspec/internal/specstore"
)

// CheckProgramCache pins the device program cache for every listed
// Options variant of one device:
//
//   - two New calls share one program but own distinct control
//     structures, and a write to one state does not show in the other;
//   - every variant has its own program: no two variants' programs hash
//     the same;
//   - an uncached build hashes the same as the cached program, so store
//     keys stay stable across process restarts.
//
// newDev is the package's New and build its uncached program builder.
func CheckProgramCache[O comparable](t *testing.T, variants []O, newDev func(O) machine.Device, build func(O) *ir.Program) {
	t.Helper()
	hashes := map[string]O{}
	for _, o := range variants {
		a, b := newDev(o), newDev(o)
		if a.Program() != b.Program() {
			t.Errorf("%+v: two instances run different programs", o)
		}
		if a.State() == b.State() {
			t.Fatalf("%+v: two instances share one control structure", o)
		}
		power := append([]byte(nil), b.State().Bytes()...)
		for i := range a.State().Bytes() {
			a.State().Bytes()[i] ^= 0xFF
		}
		if !bytes.Equal(b.State().Bytes(), power) {
			t.Errorf("%+v: a write to one instance's state showed in another's", o)
		}
		if c := newDev(o); !bytes.Equal(c.State().Bytes(), power) {
			t.Errorf("%+v: a new instance is not at power-on values", o)
		}

		p := a.Program()
		h := specstore.ProgramHash(p)
		if prev, ok := hashes[h]; ok {
			t.Errorf("%+v and %+v share one program", prev, o)
		}
		hashes[h] = o

		fresh := build(o)
		if fresh == p {
			t.Fatalf("%+v: build returned the cached program", o)
		}
		if got := specstore.ProgramHash(fresh); got != h {
			t.Errorf("%+v: an uncached build hashes to %s, the cached program to %s", o, got, h)
		}
	}
}
