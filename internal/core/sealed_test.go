package core_test

import (
	"fmt"
	"testing"

	"sedspec/internal/core"
	"sedspec/internal/interp"
	"sedspec/internal/ir"
)

// assertSealedEquivalent checks every sealed lowering against the mutable
// spec it came from: the flat block table, the lowered stream's ops, the
// case runs, the dense id arrays, the indirect-target slices, the access
// bitsets, and the parameter bitset must answer exactly as the map-based
// originals.
func assertSealedEquivalent(t *testing.T, spec *core.Spec) {
	t.Helper()
	ss, tc := spec.SealThreaded()
	prog := spec.Program()

	if ss.Device != spec.Device {
		t.Errorf("sealed device = %q, want %q", ss.Device, spec.Device)
	}
	if ss.Entry != spec.Entry {
		t.Errorf("sealed entry = %d, want %d", ss.Entry, spec.Entry)
	}
	if ss.Program() != prog {
		t.Error("sealed spec lost the program pointer")
	}
	if ss.NumBlocks() != len(spec.Blocks) {
		t.Fatalf("sealed id space = %d, want %d", ss.NumBlocks(), len(spec.Blocks))
	}

	for id, b := range spec.Blocks {
		sb := ss.Block(id)
		if b == nil {
			if sb != nil {
				t.Errorf("block %d: tombstone expected, got live block", id)
			}
			continue
		}
		if sb == nil {
			t.Errorf("block %d: live block expected, got tombstone", id)
			continue
		}
		if sb.Ref != b.Ref || sb.Kind != b.Kind || sb.Returns != b.Returns || sb.Halts != b.Halts {
			t.Errorf("block %d: identity mismatch: %+v vs %+v", id, sb, b)
		}
		if want := prog.Handlers[b.Ref.Handler].NumTemps; int(sb.NumTemps) != want {
			t.Errorf("block %d: NumTemps = %d, want %d", id, sb.NumTemps, want)
		}

		// The block's instructions name the spec's own DSOD ops, in order,
		// with their check metadata.
		pos := 0
		for pc := tc.BlockPC[id]; int(pc) < len(tc.Instrs) && tc.Cold[pc].Blk == sb; pc++ {
			in, cold := &tc.Instrs[pc], &tc.Cold[pc]
			for k, op := range []*ir.Op{cold.Op, cold.Op2} {
				if op == nil {
					continue
				}
				for pos < len(b.DSOD) && b.DSOD[pos].Op != op {
					pos++
				}
				if pos == len(b.DSOD) {
					t.Fatalf("block %d pc %d: op is not the spec's next DSOD op", id, pc)
				}
				checked := in.Checked
				if k == 1 {
					checked = in.Checked2
				}
				want := b.DSOD[pos].ParamIndexed
				if op.Code == ir.OpStore {
					want = spec.Params.Contains(op.Field)
				}
				if checked != want {
					t.Errorf("block %d op %d: DSOD metadata diverges", id, pos)
				}
				pos++
			}
		}

		if (b.NBTD != nil) != sb.HasNBTD {
			t.Fatalf("block %d: HasNBTD = %v, want %v", id, sb.HasNBTD, b.NBTD != nil)
		}
		if b.NBTD == nil {
			if int(sb.Next) != b.Next {
				t.Errorf("block %d: Next = %d, want %d", id, sb.Next, b.Next)
			}
			continue
		}
		n := b.NBTD
		if sb.TermKind != n.Kind || sb.Term != n.Term {
			t.Errorf("block %d: terminator lowering diverges", id)
		}
		if sb.TakenSeen != n.TakenSeen || sb.NotTakenSeen != n.NotTakenSeen ||
			int(sb.TakenNext) != n.TakenNext || int(sb.NotTakenNext) != n.NotTakenNext {
			t.Errorf("block %d: branch arms diverge", id)
		}
		for sel, want := range n.CaseNext {
			got, _, ok := ss.CaseNextEdge(sb, sel)
			if !ok || got != want {
				t.Errorf("block %d: CaseNextEdge(%#x) = %d,%v, want %d,true", id, sel, got, ok, want)
			}
			// A neighbouring unseen selector must miss (probes the binary
			// search boundaries).
			if _, seen := n.CaseNext[sel+1]; !seen {
				if _, _, ok := ss.CaseNextEdge(sb, sel+1); ok {
					t.Errorf("block %d: CaseNextEdge(%#x) hit, want miss", id, sel+1)
				}
			}
		}
	}

	// Dense id arrays vs byRef.
	for h := range prog.Handlers {
		for bi := range prog.Handlers[h].Blocks {
			ref := ir.BlockRef{Handler: h, Block: bi}
			if got, want := ss.BlockID(h, bi), spec.BlockFor(ref); got != want {
				t.Errorf("BlockID(%d,%d) = %d, want %d", h, bi, got, want)
			}
		}
		if got, want := ss.HandlerEntry(h), spec.BlockFor(ir.BlockRef{Handler: h, Block: 0}); got != want {
			t.Errorf("HandlerEntry(%d) = %d, want %d", h, got, want)
		}
	}
	if ss.BlockID(-1, 0) != core.NoBlock || ss.BlockID(len(prog.Handlers), 0) != core.NoBlock {
		t.Error("out-of-range handler must resolve to NoBlock")
	}

	// Indirect targets.
	for field, set := range spec.IndirectTargets {
		for target := range set {
			if !ss.LegitimateTarget(field, target) {
				t.Errorf("LegitimateTarget(%d, %#x) = false, want true", field, target)
			}
			if ss.LegitimateTarget(field, target+1) != spec.LegitimateTarget(field, target+1) {
				t.Errorf("LegitimateTarget(%d, %#x) diverges on probe", field, target+1)
			}
		}
	}
	if ss.LegitimateTarget(-1, 0) || ss.LegitimateTarget(len(prog.Fields), 0) {
		t.Error("out-of-range field must have no legitimate targets")
	}

	// Access vectors: exhaustive over learned commands × id space, plus
	// unlearned command probes (the global set alone).
	probe := []uint64{0, 1, 0xFF, ^uint64(0)}
	for cmd := range spec.CmdTable.Access {
		probe = append(probe, cmd, cmd+1)
	}
	for _, cmd := range probe {
		v := ss.CmdAccess(cmd)
		for id := -1; id <= len(spec.Blocks)+64; id++ {
			if got, want := v.Has(id), spec.CmdTable.Accessible(cmd, id); got != want {
				t.Errorf("CmdAccess(%#x).Has(%d) = %v, want %v", cmd, id, got, want)
			}
		}
	}

	// Parameter bitset.
	for f := -1; f <= len(prog.Fields); f++ {
		if got, want := ss.ParamField(f), spec.Params.Contains(f); got != want {
			t.Errorf("ParamField(%d) = %v, want %v", f, got, want)
		}
	}
}

func TestSealEquivalence(t *testing.T) {
	for _, disable := range []bool{false, true} {
		prog := buildReducible(t)
		spec := learn(t, prog, reqs(), core.BuildOpts{DisableReduction: disable})
		assertSealedEquivalent(t, spec)
	}
}

// buildWideSwitch constructs a program whose decode switch observes one
// selector per arm, wider than any learned device's switch.
func buildWideSwitch(t testing.TB, arms int) (*ir.Program, []*interp.Request) {
	t.Helper()
	b := ir.NewBuilder("wideswitch")
	last := b.Int("last", ir.W8, ir.HWRegister())

	h := b.Handler("dispatch")
	e := h.Block("entry").Entry()
	v := e.IOIn(ir.W8, "v = ioread8()")
	cases := make([]ir.SwitchArm, arms)
	for i := range cases {
		cases[i] = ir.Case(uint64(i), "body")
	}
	e.Switch(v, "switch (v)", "body", cases...)

	body := h.Block("body")
	w := body.IOAddr("w = req->addr")
	body.Store(last, w, "s->last = w")
	body.Jump("out", "goto out")
	h.Block("out").Exit().Halt("return")

	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var rs []*interp.Request
	for i := 0; i < arms; i++ {
		rs = append(rs, interp.NewWrite(interp.SpacePIO, 0, []byte{byte(i)}))
	}
	return prog, rs
}

func TestSealWideSwitch(t *testing.T) {
	prog, rs := buildWideSwitch(t, 40)
	spec := learn(t, prog, rs, core.BuildOpts{})
	var wide *core.ESBlock
	for _, b := range spec.Blocks {
		if b != nil && b.NBTD != nil && len(b.NBTD.CaseNext) == 40 {
			wide = b
		}
	}
	if wide == nil {
		t.Fatal("no 40-arm switch block observed")
	}
	if sb := spec.Seal().Block(wide.ID); sb.CaseEnd-sb.CaseStart != 40 {
		t.Errorf("wide switch sealed a case run of %d arms, want 40", sb.CaseEnd-sb.CaseStart)
	}
	assertSealedEquivalent(t, spec)
}

// buildManyCommands constructs a program whose command-decision switch
// learns n commands. Command i runs body i%3, so the access sets differ
// by command, and the pre-decision block is visited outside any command
// window, so the global set is not empty.
func buildManyCommands(t testing.TB, n int) (*ir.Program, []*interp.Request) {
	t.Helper()
	b := ir.NewBuilder("manycmds")
	last := b.Int("last", ir.W8, ir.HWRegister())

	h := b.Handler("dispatch")
	pre := h.Block("pre").Entry()
	v := pre.IOIn(ir.W8, "v = ioread8()")
	pre.Jump("decide", "goto decide")

	cases := make([]ir.SwitchArm, n)
	for i := range cases {
		cases[i] = ir.Case(uint64(i), fmt.Sprintf("body%d", i%3))
	}
	h.Block("decide").CmdDecision().Switch(v, "switch (v)", "body0", cases...)
	for k := 0; k < 3; k++ {
		body := h.Block(fmt.Sprintf("body%d", k))
		body.Store(last, body.Const(uint64(k), "k"), "s->last = k")
		body.Jump("out", "goto out")
	}
	h.Block("out").CmdEnd().Halt("return")

	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var rs []*interp.Request
	for i := 0; i < n; i++ {
		rs = append(rs, interp.NewWrite(interp.SpacePIO, 0, []byte{byte(i)}))
	}
	return prog, rs
}

// TestSealManyCommands seals a spec with more learned commands than any
// device has and requires every command's access vector, and the global
// vector unlearned commands get, to answer exactly as the learned table.
func TestSealManyCommands(t *testing.T) {
	const n = 80
	prog, rs := buildManyCommands(t, n)
	spec := learn(t, prog, rs, core.BuildOpts{DisableReduction: true})
	if got := spec.CmdTable.Commands(); got != n {
		t.Fatalf("learned %d commands, want %d", got, n)
	}
	if len(spec.CmdTable.Global) == 0 {
		t.Fatal("no global block learned")
	}
	ss := spec.Seal()
	var allowed, denied int
	for cmd := uint64(0); cmd < n+2; cmd++ {
		v := ss.CmdAccess(cmd)
		for id := -1; id <= len(spec.Blocks); id++ {
			want := spec.CmdTable.Accessible(cmd, id)
			if got := v.Has(id); got != want {
				t.Errorf("CmdAccess(%d).Has(%d) = %v, want %v", cmd, id, got, want)
			}
			if want {
				allowed++
			} else if spec.Block(id) != nil {
				denied++
			}
		}
	}
	if allowed == 0 || denied == 0 {
		t.Errorf("degenerate access table: %d allowed, %d denied live pairs", allowed, denied)
	}
	assertSealedEquivalent(t, spec)
}

func TestSealedInvariants(t *testing.T) {
	prog := buildReducible(t)
	spec := learn(t, prog, reqs(), core.BuildOpts{})
	ss, tc := spec.SealThreaded() // Seal itself asserts (panics on violation)
	if err := ss.CheckInvariants(tc); err != nil {
		t.Fatalf("freshly sealed spec violates invariants: %v", err)
	}

	// Corrupt the sealed structures one at a time (Block returns a pointer
	// into the flat table) and verify each violation is caught.
	sb := ss.Block(spec.Entry)
	if sb == nil {
		t.Fatal("entry block missing")
	}
	corruptions := []struct {
		name    string
		mutate  func()
		restore func()
	}{
		{"stream pc", func() { tc.Instrs[tc.EntryPC].Next = 1 << 30 }, func(next int32) func() {
			return func() { tc.Instrs[tc.EntryPC].Next = next }
		}(tc.Instrs[tc.EntryPC].Next)},
		{"block pc", func() { tc.BlockPC[spec.Entry]++ }, func(pc int32) func() {
			return func() { tc.BlockPC[spec.Entry] = pc }
		}(tc.BlockPC[spec.Entry])},
		{"next id", func() { sb.Next = 1 << 30 }, func(next int32) func() {
			return func() { sb.Next = next }
		}(sb.Next)},
		{"taken id", func() { sb.TakenNext = -7 }, func(next int32) func() {
			return func() { sb.TakenNext = next }
		}(sb.TakenNext)},
		{"entry", func() { ss.Entry = -1 }, func(e int) func() {
			return func() { ss.Entry = e }
		}(ss.Entry)},
	}
	for _, c := range corruptions {
		c.mutate()
		if err := ss.CheckInvariants(tc); err == nil {
			t.Errorf("%s corruption not detected", c.name)
		}
		c.restore()
	}
	if err := ss.CheckInvariants(tc); err != nil {
		t.Fatalf("restored spec still violates invariants: %v", err)
	}
}

func TestSealSnapshotIsolation(t *testing.T) {
	prog := buildReducible(t)
	spec := learn(t, prog, reqs(), core.BuildOpts{})
	ss := spec.Seal()
	entry := ss.Block(spec.Entry)
	if entry == nil {
		t.Fatal("entry block missing from sealed spec")
	}
	wantOps := 0
	for _, b := range spec.Blocks {
		if b != nil {
			wantOps += len(b.DSOD)
		}
	}
	wantNext := entry.Next

	// Mutating the spec after sealing must not leak into the snapshot.
	spec.Blocks[spec.Entry].DSOD = nil
	spec.Blocks[spec.Entry].Next = core.NoBlock
	if got := ss.Lowering().Ops; got != wantOps {
		t.Errorf("sealed DSOD changed after spec mutation: %d ops, want %d", got, wantOps)
	}
	if entry.Next != wantNext {
		t.Errorf("sealed successor changed after spec mutation: %d, want %d", entry.Next, wantNext)
	}
}
