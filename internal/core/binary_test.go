package core_test

import (
	"bytes"
	"testing"

	"sedspec/internal/core"
	"sedspec/internal/ir"
)

func TestSpecBinaryRoundTrip(t *testing.T) {
	prog := buildReducible(t)
	spec := learn(t, prog, reqs(), core.BuildOpts{})

	data, err := spec.EncodeBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := core.DecodeBinary(prog, data)
	if err != nil {
		t.Fatal(err)
	}

	// The decoded spec must render identically in every serialized view:
	// the ES-CFG structure (Dot), the full sorted JSON form, and a
	// re-encoding of the binary form itself.
	if back.Dot() != spec.Dot() {
		t.Error("ES-CFG structure changed across the binary round trip")
	}
	var j1, j2 bytes.Buffer
	if err := spec.Save(&j1); err != nil {
		t.Fatal(err)
	}
	if err := back.Save(&j2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Error("JSON rendering changed across the binary round trip")
	}
	data2, err := back.EncodeBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("re-encoding the decoded spec produced different bytes")
	}
	if back.Stats != spec.Stats {
		t.Errorf("stats changed: %+v vs %+v", back.Stats, spec.Stats)
	}
}

func TestSpecBinaryDeterministic(t *testing.T) {
	prog := buildReducible(t)
	spec := learn(t, prog, reqs(), core.BuildOpts{})
	a, err := spec.EncodeBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.EncodeBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("encoding the same spec twice produced different bytes")
	}
}

func TestDecodeBinaryRejects(t *testing.T) {
	prog := buildReducible(t)
	spec := learn(t, prog, reqs(), core.BuildOpts{})
	data, err := spec.EncodeBinary()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := core.DecodeBinary(prog, []byte("not a spec blob")); err == nil {
		t.Error("bad magic must fail to decode")
	}
	for _, n := range []int{4, 8, len(data) / 2, len(data) - 3} {
		if _, err := core.DecodeBinary(prog, data[:n]); err == nil {
			t.Errorf("truncation to %d bytes must fail to decode", n)
		}
	}

	b2 := ir.NewBuilder("other")
	h := b2.Handler("dispatch")
	h.Block("e").Entry().Halt("return")
	other, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.DecodeBinary(other, data); err == nil {
		t.Error("decoding a spec against the wrong device must fail")
	}
}

func TestSpecBinarySealEquivalence(t *testing.T) {
	prog := buildReducible(t)
	spec := learn(t, prog, reqs(), core.BuildOpts{})
	data, err := spec.EncodeBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := core.DecodeBinary(prog, data)
	if err != nil {
		t.Fatal(err)
	}
	ss, tc := back.SealThreaded()
	if err := ss.CheckInvariants(tc); err != nil {
		t.Errorf("sealed decoded spec violates invariants: %v", err)
	}
}
