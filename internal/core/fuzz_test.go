package core_test

import (
	"testing"

	"sedspec"
	"sedspec/internal/core"
	"sedspec/internal/ir"
	"sedspec/internal/machine"
	"sedspec/internal/workload"
)

// sealCrasher is a blob that once decoded against buildReducible's
// program with a block ref past the handler table, and then panicked in
// Seal with an index out of range.
const sealCrasher = "SEDS\x01\treducible\x00\x010\x04000000\x04000000\x0000\x00\x00\x00\x00\x00\x00\x000000000000"

// decodeSeal decodes data against every program that accepts it and
// seals the result. A blob must either be rejected by DecodeBinary or
// seal cleanly: Seal panics on a sealed form that breaks its
// invariants, an out-of-range reference panics on its own, and the
// sealed tables and threaded stream must pass CheckInvariants.
func decodeSeal(t *testing.T, progs []*ir.Program, data []byte) {
	for _, prog := range progs {
		if spec, err := core.DecodeBinary(prog, data); err == nil {
			ss, tc := spec.SealThreaded()
			if err := ss.CheckInvariants(tc); err != nil {
				t.Fatalf("%s: accepted blob seals inconsistently: %v", prog.Name, err)
			}
		}
	}
}

func TestDecodeRejectsSealCrasher(t *testing.T) {
	prog := buildReducible(t)
	if _, err := core.DecodeBinary(prog, []byte(sealCrasher)); err == nil {
		t.Fatal("blob with an out-of-range block ref decoded")
	}
}

// FuzzDecodeSeal feeds mutated spec blobs through DecodeBinary and Seal.
// The seeds are the blobs the codec tests write: the reducible test
// program's learned spec and the benign spec of each of the five
// devices. Crashers found so far live under testdata/fuzz.
func FuzzDecodeSeal(f *testing.F) {
	reducible := buildReducible(f)
	progs := []*ir.Program{reducible}
	seed := func(spec *core.Spec) {
		data, err := spec.EncodeBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	seed(learn(f, reducible, reqs(), core.BuildOpts{}))
	for _, tg := range workload.Targets(true) {
		dev, opts := tg.Build()
		att := machine.New(machine.WithMemory(1<<20)).Attach(dev, opts...)
		spec, err := sedspec.Learn(att, tg.Train)
		if err != nil {
			f.Fatal(err)
		}
		progs = append(progs, dev.Program())
		seed(spec)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeSeal(t, progs, data)
	})
}
