package core_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"sedspec/internal/analysis"
	"sedspec/internal/core"
	"sedspec/internal/interp"
	"sedspec/internal/ir"
	"sedspec/internal/itccfg"
	"sedspec/internal/trace"
)

// buildReducible constructs a program whose benign runs exercise the two
// reduction rules: a pass-through block with no state effect (compressed
// away) and a conditional whose arms converge on the same ES block after
// elision (the branch is merged out).
func buildReducible(t testing.TB) *ir.Program {
	t.Helper()
	b := ir.NewBuilder("reducible")
	mode := b.Int("mode", ir.W8, ir.HWRegister())
	count := b.Int("count", ir.W16)
	buf := b.Buf("data", 8)

	h := b.Handler("dispatch")
	e := h.Block("entry").Entry()
	v := e.IOIn(ir.W8, "v = ioread8()")
	e.Store(mode, v, "s->mode = v")
	m := e.Load(mode, "m = s->mode")
	two := e.Const(2, "2")
	// Both arms perform only logging (dropped by the slice), then
	// converge: after compression the branch merges away.
	e.Branch(m, ir.RelLT, two, ir.W8, false, "if (m < 2)", "log_low", "log_high")

	ll := h.Block("log_low")
	n1 := ll.Const(16, "16")
	ll.Work(n1, "trace_low()")
	ll.Jump("hop", "goto hop")
	lh := h.Block("log_high")
	n2 := lh.Const(16, "16")
	lh.Work(n2, "trace_high()")
	lh.Jump("hop", "goto hop")

	// A pure pass-through block: no kept ops, unconditional jump.
	hop := h.Block("hop")
	hop.Jump("bump", "goto bump")

	bu := h.Block("bump")
	c := bu.Load(count, "c = s->count")
	one := bu.Const(1, "1")
	c2 := bu.Arith(ir.ALUAdd, c, one, ir.W16, false, "c + 1")
	bu.Store(count, c2, "s->count = c + 1")
	idx := bu.Const(0, "0")
	bu.BufStore(buf, idx, c2, ir.W16, false, "s->data[0] = c")
	bu.Jump("out", "goto out")

	h.Block("out").Exit().Halt("return")

	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// learn runs the full collection pipeline by hand.
func learn(t testing.TB, prog *ir.Program, reqs []*interp.Request, opts core.BuildOpts) *core.Spec {
	t.Helper()
	st := interp.NewState(prog)
	in := interp.New(prog, st, nil)
	col := trace.NewCollector(trace.DeviceConfig(prog))
	in.SetTracer(col)
	for _, r := range reqs {
		r.Rewind()
		if res := in.Dispatch(r); res.Fault != nil {
			t.Fatal(res.Fault)
		}
	}
	in.SetTracer(nil)
	runs, err := trace.Decode(prog, col.Packets())
	if err != nil {
		t.Fatal(err)
	}
	g := itccfg.New(prog)
	for _, r := range runs {
		g.AddRun(r)
	}
	params := analysis.SelectParams(g)

	st.Reset()
	rec := analysis.NewRecorder(prog.Name)
	in.SetObserver(rec)
	in.SetWatch(params.WatchList())
	for _, r := range reqs {
		r.Rewind()
		rec.Begin(r)
		res := in.Dispatch(r)
		rec.End(res)
		if res.Fault != nil {
			t.Fatal(res.Fault)
		}
	}
	in.SetObserver(nil)

	spec, err := core.BuildWith(prog, params, rec.Log(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func reqs() []*interp.Request {
	return []*interp.Request{
		interp.NewWrite(interp.SpacePIO, 0, []byte{0}), // low arm
		interp.NewWrite(interp.SpacePIO, 0, []byte{5}), // high arm
		interp.NewWrite(interp.SpacePIO, 0, []byte{1}),
	}
}

func TestReductionCompressesAndMerges(t *testing.T) {
	prog := buildReducible(t)
	spec := learn(t, prog, reqs(), core.BuildOpts{})
	if spec.Stats.CompressedBlocks == 0 {
		t.Error("the pass-through chain should be compressed")
	}
	if spec.Stats.MergedBranches == 0 {
		t.Error("the converging conditional should be merged")
	}
	if spec.Stats.ESBlocks >= spec.Stats.ObservedBlocks {
		t.Errorf("reduction did not shrink the spec: %d ES of %d observed",
			spec.Stats.ESBlocks, spec.Stats.ObservedBlocks)
	}
	// Compressed blocks still count as covered.
	for bi := range prog.Handlers[0].Blocks {
		ref := ir.BlockRef{Handler: 0, Block: bi}
		if !spec.Covers(ref) {
			t.Errorf("block %d lost coverage after reduction", bi)
		}
	}
}

func TestDisableReductionKeepsEverything(t *testing.T) {
	prog := buildReducible(t)
	spec := learn(t, prog, reqs(), core.BuildOpts{DisableReduction: true})
	if spec.Stats.CompressedBlocks != 0 || spec.Stats.MergedBranches != 0 {
		t.Errorf("reduction ran despite DisableReduction: %+v", spec.Stats)
	}
	if spec.Stats.ESBlocks != spec.Stats.ObservedBlocks {
		t.Errorf("unreduced spec should keep all %d blocks, has %d",
			spec.Stats.ObservedBlocks, spec.Stats.ESBlocks)
	}
}

func TestNoTrainingData(t *testing.T) {
	prog := buildReducible(t)
	params := analysis.NewSelection(prog, nil)
	_, err := core.Build(prog, params, &analysis.Log{Device: prog.Name})
	if err == nil || !strings.Contains(err.Error(), "no usable training rounds") {
		t.Errorf("err = %v, want ErrNoTraining", err)
	}
}

// TestSpecJSONRoundTrip checks that the JSON written by Save parses back
// and carries the spec's device, entry, params, blocks and stats. JSON is
// write-only: the binary codec is the only reader.
func TestSpecJSONRoundTrip(t *testing.T) {
	prog := buildReducible(t)
	spec := learn(t, prog, reqs(), core.BuildOpts{})

	var buf bytes.Buffer
	if err := spec.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var back struct {
		Device string            `json:"device"`
		Entry  int               `json:"entry"`
		Params []json.RawMessage `json:"params"`
		Blocks []json.RawMessage `json:"blocks"`
		Stats  core.Stats        `json:"stats"`
	}
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Device != spec.Device {
		t.Errorf("device changed: %q vs %q", back.Device, spec.Device)
	}
	if back.Stats != spec.Stats {
		t.Errorf("stats changed: %+v vs %+v", back.Stats, spec.Stats)
	}
	if back.Entry != spec.Entry {
		t.Errorf("entry changed: %d vs %d", back.Entry, spec.Entry)
	}
	if len(back.Params) != len(spec.Params.Params) {
		t.Error("params changed across round trip")
	}
	if len(back.Blocks) != len(spec.Blocks) {
		t.Errorf("blocks changed: %d vs %d", len(back.Blocks), len(spec.Blocks))
	}
}

// TestLoadRejectsWrongDevice checks that a spec blob does not load into a
// program that shares the device name but not its handlers and blocks.
func TestLoadRejectsWrongDevice(t *testing.T) {
	prog := buildReducible(t)
	spec := learn(t, prog, reqs(), core.BuildOpts{})
	data, err := spec.EncodeBinary()
	if err != nil {
		t.Fatal(err)
	}

	b2 := ir.NewBuilder(prog.Name)
	h := b2.Handler("dispatch")
	h.Block("e").Entry().Halt("return")
	other, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.DecodeBinary(other, data); err == nil {
		t.Error("loading a spec against the wrong device must fail")
	}
}

// TestDecodeBinaryRejectsBadRefs checks that a blob whose DSOD op ref
// lies outside the program fails to decode.
func TestDecodeBinaryRejectsBadRefs(t *testing.T) {
	prog := buildReducible(t)
	spec := learn(t, prog, reqs(), core.BuildOpts{})
	bad := false
	for _, b := range spec.Blocks {
		if b != nil && len(b.DSOD) > 0 {
			b.DSOD[0].Ref.Handler = 99
			bad = true
			break
		}
	}
	if !bad {
		t.Fatal("the learned spec has no DSOD op to break")
	}
	data, err := spec.EncodeBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.DecodeBinary(prog, data); err == nil {
		t.Error("out-of-range op ref must fail to decode")
	}
}

func TestCmdAccessTable(t *testing.T) {
	tbl := &core.CmdAccessTable{
		Access: map[uint64]map[int]bool{7: {3: true}},
		Global: map[int]bool{1: true},
	}
	if !tbl.Accessible(7, 3) {
		t.Error("block 3 should be accessible under command 7")
	}
	if tbl.Accessible(7, 4) {
		t.Error("block 4 should not be accessible under command 7")
	}
	if !tbl.Accessible(9, 1) {
		t.Error("global blocks are accessible under every command")
	}
	if tbl.Accessible(9, 3) {
		t.Error("command 9 has no access vector")
	}
	if tbl.Commands() != 1 {
		t.Errorf("Commands = %d, want 1", tbl.Commands())
	}
}
