package analysis_test

import (
	"bytes"
	"reflect"
	"testing"

	"sedspec/internal/analysis"
	"sedspec/internal/interp"
	"sedspec/internal/ir"
	"sedspec/internal/itccfg"
	"sedspec/internal/trace"
)

// buildAnalyzed constructs a program exercising the analyzer: a register
// influencing a branch (Rule 1), a buffer with index and count fields
// (Rule 2), a function pointer called indirectly (Rule 2), an env read
// feeding a condition (sync point), and droppable side effects.
func buildAnalyzed(t testing.TB) *ir.Program {
	t.Helper()
	b := ir.NewBuilder("analyzed")
	ctrl := b.Int("ctrl", ir.W8, ir.HWRegister())
	unusedReg := b.Int("unused_reg", ir.W8, ir.HWRegister())
	buf := b.Buf("buf", 32)
	pos := b.Int("pos", ir.W16)
	limit := b.Int("limit", ir.W16)
	scratch := b.Int("scratch", ir.W32)
	cb := b.Func("cb")
	_ = unusedReg

	h := b.Handler("dispatch")
	e := h.Block("entry").Entry()
	c := e.Load(ctrl, "c = s->ctrl")
	one := e.Const(1, "1")
	e.Branch(c, ir.RelEQ, one, ir.W8, false, "if (s->ctrl == 1)", "push", "envy")

	p := h.Block("push")
	v := p.IOIn(ir.W8, "v = ioread8()")
	pv := p.Load(pos, "p = s->pos")
	lv := p.Load(limit, "n = s->limit")
	p.Branch(pv, ir.RelGE, lv, ir.W16, false, "if (p >= n)", "out", "store")

	st := h.Block("store")
	pv2 := st.Load(pos, "p")
	st.BufStore(buf, pv2, v, ir.W16, false, "s->buf[p] = v")
	o := st.Const(1, "1")
	p2 := st.Arith(ir.ALUAdd, pv2, o, ir.W16, false, "p + 1")
	st.Store(pos, p2, "s->pos = p + 1")
	// Droppable work: a checksum fed only to the response.
	sum := st.Arith(ir.ALUAdd, v, p2, ir.W32, false, "sum = v + p")
	st.IOOut(sum, ir.W8, "iowrite8(sum)")
	big := st.Const(4096, "4096")
	st.Work(big, "emulate(4096)")
	st.Store(scratch, sum, "s->scratch = sum")
	st.CallPtr(cb, "s->cb()")
	st.Jump("out", "goto out")

	ev := h.Block("envy")
	lk := ev.EnvRead(ir.EnvLink, "up = link_status()")
	z := ev.Const(0, "0")
	ev.Branch(lk, ir.RelNE, z, ir.W8, false, "if (up)", "out", "down")
	h.Block("down").Jump("out", "goto out")
	h.Block("out").Exit().Halt("return")

	cbh := b.Handler("on_event")
	cbb := cbh.Block("body")
	cbb.IRQRaise("irq")
	cbb.Return("return")

	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// graphOf executes benign requests and builds the ITC-CFG.
func graphOf(t testing.TB, prog *ir.Program) *itccfg.Graph {
	t.Helper()
	st := interp.NewState(prog)
	st.SetIntByName("limit", 8)
	st.SetIntByName("ctrl", 1)
	st.SetFuncPtr(prog.FieldIndex("cb"), uint64(prog.HandlerIndex("on_event")))
	in := interp.New(prog, st, nil)
	col := trace.NewCollector(trace.DeviceConfig(prog))
	in.SetTracer(col)
	for i := 0; i < 10; i++ {
		if res := in.Dispatch(interp.NewWrite(interp.SpacePIO, 0, []byte{byte(i)})); res.Fault != nil {
			t.Fatal(res.Fault)
		}
	}
	st.SetIntByName("ctrl", 0) // env branch path
	if res := in.Dispatch(interp.NewWrite(interp.SpacePIO, 0, nil)); res.Fault != nil {
		t.Fatal(res.Fault)
	}
	runs, err := trace.Decode(prog, col.Packets())
	if err != nil {
		t.Fatal(err)
	}
	g := itccfg.New(prog)
	for _, r := range runs {
		g.AddRun(r)
	}
	return g
}

func TestSelectParamsRules(t *testing.T) {
	prog := buildAnalyzed(t)
	sel := analysis.SelectParams(graphOf(t, prog))

	wantClass := map[string]analysis.ParamClass{
		"ctrl":  analysis.ClassRegister,
		"buf":   analysis.ClassBuffer,
		"pos":   analysis.ClassIndex,
		"limit": analysis.ClassIndex, // counting variable (compared to pos)
		"cb":    analysis.ClassFuncPtr,
	}
	for name, want := range wantClass {
		p := sel.ParamFor(prog.FieldIndex(name))
		if p == nil {
			t.Errorf("%s not selected", name)
			continue
		}
		if p.Class != want {
			t.Errorf("%s class = %v, want %v", name, p.Class, want)
		}
	}
	// A register never influencing control flow is not selected (Rule 1's
	// candidate filter), nor is a scratch field.
	for _, name := range []string{"unused_reg", "scratch"} {
		if sel.Contains(prog.FieldIndex(name)) {
			t.Errorf("%s should not be selected", name)
		}
	}
	if len(sel.WatchList()) != 5 {
		t.Errorf("WatchList = %v, want 5 entries", sel.WatchList())
	}
	if sel.String() == "" {
		t.Error("empty String()")
	}
}

func TestComputeSliceRetention(t *testing.T) {
	prog := buildAnalyzed(t)
	sl := analysis.ComputeSlice(prog, 0)
	if sl.DroppedOps == 0 {
		t.Error("slice should drop the response/work ops")
	}
	if sl.KeptOps == 0 {
		t.Fatal("slice kept nothing")
	}
	if len(sl.SyncPoints) != 1 {
		t.Errorf("sync points = %d, want 1 (the env read)", len(sl.SyncPoints))
	}
	// The dropped set must include OpWork and OpIOOut, and never a store.
	h := &prog.Handlers[0]
	for bi := range h.Blocks {
		for oi := range h.Blocks[bi].Ops {
			op := &h.Blocks[bi].Ops[oi]
			kept := sl.Kept[bi][oi]
			switch op.Code {
			case ir.OpWork, ir.OpIOOut:
				if kept {
					t.Errorf("%v at block %d op %d should be dropped", op.Code, bi, oi)
				}
			case ir.OpStore, ir.OpBufStore, ir.OpIOIn, ir.OpCallPtr:
				if !kept {
					t.Errorf("%v at block %d op %d should be kept", op.Code, bi, oi)
				}
			}
		}
	}
}

func TestFlowInfluence(t *testing.T) {
	prog := buildAnalyzed(t)
	hf := analysis.FlowOf(prog, 0)
	// The branch in "push" compares pos against limit.
	push := prog.Handlers[0].Blocks[1]
	infA := hf.TempInfluence(push.Term.A)
	if !infA.Fields[prog.FieldIndex("pos")] {
		t.Error("branch operand A should be influenced by pos")
	}
	infB := hf.TempInfluence(push.Term.B)
	if !infB.Fields[prog.FieldIndex("limit")] {
		t.Error("branch operand B should be influenced by limit")
	}
	// The env branch's operand carries env influence.
	envy := prog.Handlers[0].Blocks[3]
	if !hf.TempInfluence(envy.Term.A).Env {
		t.Error("env branch operand should carry Env influence")
	}
}

func TestObservationPoints(t *testing.T) {
	prog := buildAnalyzed(t)
	pts := analysis.ObservationPoints(graphOf(t, prog))
	if len(pts) == 0 {
		t.Fatal("no observation points")
	}
	// The entry (typed), both conditionals, the indirect-call block, and
	// the exit must all be instrumented.
	want := map[int]bool{0: true, 1: true, 2: true, 3: true}
	seen := map[int]bool{}
	for _, p := range pts {
		if p.Handler == 0 {
			seen[p.Block] = true
		}
	}
	for b := range want {
		if !seen[b] {
			t.Errorf("block %d should be an observation point (have %v)", b, seen)
		}
	}
}

func TestRecorderRoundTrip(t *testing.T) {
	rec := analysis.NewRecorder("toy")
	req := interp.NewWrite(interp.SpacePIO, 5, []byte{1, 2})
	rec.Begin(req)
	rec.Observe(interp.ObsEvent{Seq: 1, Block: ir.BlockRef{Handler: 0, Block: 0}, IndirectField: -1})
	rec.End(&interp.Result{})
	rec.Begin(interp.NewRead(interp.SpacePIO, 6))
	rec.Observe(interp.ObsEvent{Seq: 1, IndirectField: -1})
	rec.End(&interp.Result{Fault: &interp.Fault{Kind: interp.FaultDivZero}})

	log := rec.Log()
	if len(log.Rounds) != 2 {
		t.Fatalf("rounds = %d, want 2", len(log.Rounds))
	}
	if len(log.CleanRounds()) != 1 {
		t.Errorf("clean rounds = %d, want 1 (faulted round excluded)", len(log.CleanRounds()))
	}

	var buf bytes.Buffer
	if err := log.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := analysis.LoadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Device != "toy" || len(back.Rounds) != 2 {
		t.Errorf("round trip lost data: %+v", back)
	}
	if back.Rounds[0].Req.Addr != 5 || !back.Rounds[0].Req.Write {
		t.Errorf("request info lost: %+v", back.Rounds[0].Req)
	}
}

func TestLoadLogRejectsGarbage(t *testing.T) {
	if _, err := analysis.LoadLog(bytes.NewBufferString("{nope")); err == nil {
		t.Error("garbage JSON should fail")
	}
}

// observeAnalyzed runs a request stream over the analyzed program with
// rec installed and the interpreter watching watch, one round per request.
// Every seventh round clears ctrl to take the link-status path, and the
// fill limit makes later rounds skip the store, so events vary by round.
func observeAnalyzed(t *testing.T, prog *ir.Program, rec *analysis.Recorder, watch []int) *analysis.Log {
	t.Helper()
	st := interp.NewState(prog)
	st.SetIntByName("limit", 30)
	st.SetFuncPtr(prog.FieldIndex("cb"), uint64(prog.HandlerIndex("on_event")))
	in := interp.New(prog, st, nil)
	in.SetObserver(rec)
	in.SetWatch(watch)
	for i := 0; i < 600; i++ {
		ctrl := uint64(1)
		if i%7 == 0 {
			ctrl = 0
		}
		st.SetIntByName("ctrl", ctrl)
		req := interp.NewWrite(interp.SpacePIO, 0, []byte{byte(i)})
		rec.Begin(req)
		res := in.Dispatch(req)
		if res.Fault != nil {
			t.Fatal(res.Fault)
		}
		rec.End(res)
	}
	return rec.Log()
}

// TestRecorderProjection pins Project to an observation run: a capture
// recorder's log, narrowed to any watch list, equals the log of a plain
// recorder whose run watched only that list — field order, the nil
// Fields of events that capture nothing, and an empty watch list
// included. The stream captures over a thousand events, so the values
// are delta-coded across many rounds. Project leaves a plain recorder,
// so a repeat call or Log returns the same log.
func TestRecorderProjection(t *testing.T) {
	prog := buildAnalyzed(t)
	sel := analysis.SelectParams(graphOf(t, prog))
	for _, watch := range [][]int{
		sel.WatchList(),
		{prog.FieldIndex("scratch"), prog.FieldIndex("ctrl")},
		nil,
	} {
		want := observeAnalyzed(t, prog, analysis.NewRecorder(prog.Name), watch)
		rec := analysis.NewCaptureRecorder(prog)
		observeAnalyzed(t, prog, rec, rec.Watch())
		got := rec.Project(watch)

		captured := 0
		for _, r := range want.Rounds {
			for _, ev := range r.Events {
				if ev.Term == ir.TermBranch {
					captured++
				}
			}
		}
		if captured < 1100 {
			t.Fatalf("only %d branch events; the stream must capture over a thousand", captured)
		}
		if !reflect.DeepEqual(got, want) {
			for i := range want.Rounds {
				if !reflect.DeepEqual(got.Rounds[i], want.Rounds[i]) {
					t.Fatalf("watch %v, round %d:\n got %+v\nwant %+v", watch, i, got.Rounds[i], want.Rounds[i])
				}
			}
			t.Fatalf("watch %v: projected log differs", watch)
		}
		if again := rec.Project(sel.WatchList()); again != got || !reflect.DeepEqual(rec.Log(), want) {
			t.Fatalf("watch %v: a second Project or Log changed the projected log", watch)
		}
	}
}
