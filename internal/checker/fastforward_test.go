package checker_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"sedspec"
	"sedspec/internal/checker"
	"sedspec/internal/core"
	"sedspec/internal/cvesim"
	"sedspec/internal/devices/devutil"
	"sedspec/internal/interp"
	"sedspec/internal/ir"
	"sedspec/internal/machine"
	"sedspec/internal/obs/coverage"
)

// Loop shapes of the test-only loop device, one port each. The first
// group is what the threaded engine's fast-forward must accelerate; the
// second is what it must walk step by step, because an iteration can
// differ from the one before in a way one recorded iteration cannot show.
const (
	shapeDown8     = iota // wrapping countdown, 8-bit
	shapeDown16           // wrapping countdown, 16-bit
	shapeDown32           // wrapping countdown, 32-bit (CVE-2016-7909's shape)
	shapeUpU              // unsigned count-up to a limit field
	shapeUpS              // signed count-up to a limit field
	shapeMagic            // countdown with an `if i == K` exit in the body
	shapeHeadGuard        // exit test at the head; the exit reads the body's temp
	shapeSecond           // also counts iterations in a second field
	shapeDMAWrite         // writes guest memory it reads back next iteration
	shapeDMARead          // reads guest memory at an i-dependent address
	shapeCarried          // a temp carried from one iteration to the next
	shapeParam            // the counter is a parameter-checked field
	shapeCall             // the decrement happens in a called handler
	shapeAlternate        // two body paths chosen by the counter's low bit
	numShapes
)

var shapeNames = [numShapes]string{
	"down8", "down16", "down32", "up-unsigned", "up-signed", "magic", "head-guard",
	"second-field", "dma-write", "dma-read", "carried-temp", "param", "call", "alternate",
}

// accelerated reports whether the fast-forward may skip the shape's
// iterations.
func accelerated(shape int) bool { return shape < shapeSecond }

const (
	loopMagic   = 0x1234 // shapeMagic's exit value
	dmaMagic    = 0xBEEF // shapeDMAWrite's exit value
	dmaSlot     = 0x100  // shapeDMAWrite's guest word
	dmaTable    = 0x2000 // shapeDMARead's table base
	loopCarried = 5_000  // shapeCarried's exit count
)

// buildLoopDev builds the loop device program. Every request is a port
// write carrying two little-endian words: the start value, and the limit
// for the count-up shapes.
func buildLoopDev() *ir.Program {
	b := ir.NewBuilder("loopdev")
	c8 := b.Int("c8", ir.W8)
	c16 := b.Int("c16", ir.W16)
	c32 := b.Int("c32", ir.W32)
	lim := b.Int("lim", ir.W32)
	s16 := b.Int("s16", ir.W16, ir.Signed())
	slim := b.Int("slim", ir.W16, ir.Signed())
	tot := b.Int("tot", ir.W32)
	res := b.Int("res", ir.W32, ir.HWRegister())
	preg := b.Int("preg", ir.W16, ir.HWRegister())

	h := b.Handler("loopdev_write")
	e := h.Block("entry").Entry()
	port := e.IOAddr("port = req->addr")
	var arms []ir.SwitchArm
	for s := 0; s < numShapes; s++ {
		arms = append(arms, ir.Case(uint64(s), shapeNames[s]))
	}
	e.Switch(port, "switch (port)", "out", arms...)
	h.Block("out").Exit().Halt("return")

	// arm opens a shape: load the start value into field f and jump to the
	// loop head.
	arm := func(shape int, f ir.FieldID, head string) *ir.BlockBuilder {
		blk := h.Block(shapeNames[shape])
		v := blk.IOIn(ir.W32, "v = ioread32()")
		blk.Store(f, v, "s->i = v")
		blk.Jump(head, "goto loop")
		return blk
	}
	// countdown emits `do { i = i - 1 } while (i != 0)` over f at width w.
	countdown := func(shape int, f ir.FieldID, w ir.Width) {
		name := shapeNames[shape]
		arm(shape, f, name+"_loop")
		l := h.Block(name + "_loop")
		i := l.Load(f, "i = s->i")
		one := l.Const(1, "1")
		i1 := l.Arith(ir.ALUSub, i, one, w, false, "i - 1")
		l.Store(f, i1, "s->i = i - 1")
		z := l.Const(0, "0")
		l.Branch(i1, ir.RelNE, z, w, false, "while (i != 0)", name+"_loop", "out")
	}
	countdown(shapeDown8, c8, ir.W8)
	countdown(shapeDown16, c16, ir.W16)
	countdown(shapeDown32, c32, ir.W32)

	// countup emits `while (i < s->limit) i++` over f.
	countup := func(shape int, f, limit ir.FieldID, w ir.Width, signed bool) {
		name := shapeNames[shape]
		blk := h.Block(name)
		v := blk.IOIn(ir.W32, "v = ioread32()")
		blk.Store(f, v, "s->i = v")
		lv := blk.IOIn(ir.W32, "n = ioread32()")
		blk.Store(limit, lv, "s->limit = n")
		blk.Jump(name+"_loop", "goto loop")
		l := h.Block(name + "_loop")
		i := l.Load(f, "i = s->i")
		n := l.Load(limit, "n = s->limit")
		l.Branch(i, ir.RelLT, n, w, signed, "while (i < n)", name+"_body", "out")
		bd := h.Block(name + "_body")
		i2 := bd.Load(f, "i = s->i")
		one := bd.Const(1, "1")
		i3 := bd.Arith(ir.ALUAdd, i2, one, w, signed, "i + 1")
		bd.Store(f, i3, "s->i = i + 1")
		bd.Jump(name+"_loop", "continue")
	}
	countup(shapeUpU, c32, lim, ir.W32, false)
	countup(shapeUpS, s16, slim, ir.W16, true)

	{ // magic: do { i--; if (i == K) { s->res = 1; break } } while (i != 0)
		arm(shapeMagic, c32, "magic_loop")
		l := h.Block("magic_loop")
		i := l.Load(c32, "i = s->i")
		one := l.Const(1, "1")
		i1 := l.Arith(ir.ALUSub, i, one, ir.W32, false, "i - 1")
		l.Store(c32, i1, "s->i = i - 1")
		k := l.Const(loopMagic, "K")
		l.Branch(i1, ir.RelEQ, k, ir.W32, false, "if (i == K)", "magic_hit", "magic_next")
		n := h.Block("magic_next")
		i2 := n.Load(c32, "i = s->i")
		z := n.Const(0, "0")
		n.Branch(i2, ir.RelNE, z, ir.W32, false, "while (i != 0)", "magic_loop", "out")
		hit := h.Block("magic_hit")
		hv := hit.Const(1, "1")
		hit.Store(res, hv, "s->res = 1")
		hit.Jump("out", "break")
	}
	{ // head-guard: while ((i = s->i) != 0) { j = i - 1; s->i = j } s->res = j
		arm(shapeHeadGuard, c32, "head-guard_loop")
		l := h.Block("head-guard_loop")
		i := l.Load(c32, "i = s->i")
		z := l.Const(0, "0")
		l.Branch(i, ir.RelEQ, z, ir.W32, false, "if (i == 0)", "head-guard_exit", "head-guard_body")
		bd := h.Block("head-guard_body")
		one := bd.Const(1, "1")
		j := bd.Arith(ir.ALUSub, i, one, ir.W32, false, "j = i - 1")
		bd.Store(c32, j, "s->i = j")
		bd.Jump("head-guard_loop", "continue")
		ex := h.Block("head-guard_exit")
		ex.Store(res, j, "s->res = j")
		ex.Jump("out", "break")
	}
	{ // second field: do { i--; s->tot++ } while (i != 0)
		arm(shapeSecond, c32, "second-field_loop")
		l := h.Block("second-field_loop")
		i := l.Load(c32, "i = s->i")
		one := l.Const(1, "1")
		i1 := l.Arith(ir.ALUSub, i, one, ir.W32, false, "i - 1")
		l.Store(c32, i1, "s->i = i - 1")
		t := l.Load(tot, "t = s->tot")
		t1 := l.Arith(ir.ALUAdd, t, one, ir.W32, false, "t + 1")
		l.Store(tot, t1, "s->tot = t + 1")
		z := l.Const(0, "0")
		l.Branch(i1, ir.RelNE, z, ir.W32, false, "while (i != 0)", "second-field_loop", "out")
	}
	{ // DMA write: stl(SLOT, 0); do { if (ldl(SLOT) == M) break; i--; stl(SLOT, i) } while (i != 0)
		blk := arm(shapeDMAWrite, c32, "dma-write_loop")
		blk.DMAWrite(blk.Const(dmaSlot, "SLOT"), blk.Const(0, "0"), ir.W32, "stl(SLOT, 0)")
		l := h.Block("dma-write_loop")
		a := l.Const(dmaSlot, "SLOT")
		v := l.DMARead(a, ir.W32, "v = ldl(SLOT)")
		m := l.Const(dmaMagic, "M")
		l.Branch(v, ir.RelEQ, m, ir.W32, false, "if (v == M)", "out", "dma-write_body")
		bd := h.Block("dma-write_body")
		i := bd.Load(c32, "i = s->i")
		one := bd.Const(1, "1")
		i1 := bd.Arith(ir.ALUSub, i, one, ir.W32, false, "i - 1")
		bd.Store(c32, i1, "s->i = i - 1")
		a2 := bd.Const(dmaSlot, "SLOT")
		bd.DMAWrite(a2, i1, ir.W32, "stl(SLOT, i)")
		z := bd.Const(0, "0")
		bd.Branch(i1, ir.RelNE, z, ir.W32, false, "while (i != 0)", "dma-write_loop", "out")
	}
	{ // DMA read: do { if (ldl(TABLE + (i & 0xff) * 4) == DEAD) break; i-- } while (i != 0)
		arm(shapeDMARead, c32, "dma-read_loop")
		l := h.Block("dma-read_loop")
		i := l.Load(c32, "i = s->i")
		ff := l.Const(0xFF, "0xff")
		idx := l.Arith(ir.ALUAnd, i, ff, ir.W32, false, "i & 0xff")
		four := l.Const(4, "4")
		off := l.Arith(ir.ALUMul, idx, four, ir.W32, false, "(i & 0xff) * 4")
		base := l.Const(dmaTable, "TABLE")
		addr := l.Arith(ir.ALUAdd, base, off, ir.W32, false, "TABLE + off")
		v := l.DMARead(addr, ir.W32, "v = ldl(addr)")
		dead := l.Const(0xDEAD, "DEAD")
		l.Branch(v, ir.RelEQ, dead, ir.W32, false, "if (v == DEAD)", "out", "dma-read_next")
		n := h.Block("dma-read_next")
		i2 := n.Load(c32, "i = s->i")
		one := n.Const(1, "1")
		i1 := n.Arith(ir.ALUSub, i2, one, ir.W32, false, "i - 1")
		n.Store(c32, i1, "s->i = i - 1")
		z := n.Const(0, "0")
		n.Branch(i1, ir.RelNE, z, ir.W32, false, "while (i != 0)", "dma-read_loop", "out")
	}
	{ // carried temp: acc counts iterations in a temp the loop carries
		// round (acc = prev + 1 at the head, prev = acc at the tail), and
		// leaves at acc == L. The tail is built first and names the head's
		// acc by its temp number, four temps on.
		arm(shapeCarried, c32, "carried-temp_loop")
		tail := h.Block("carried-temp_tail")
		zero := tail.Const(0, "0")
		acc := zero + 4
		prev := tail.Arith(ir.ALUAdd, acc, zero, ir.W32, false, "prev = acc")
		iv := tail.Load(c32, "i = s->i")
		tail.Branch(iv, ir.RelNE, zero, ir.W32, false, "while (i != 0)", "carried-temp_loop", "out")
		l := h.Block("carried-temp_loop")
		one := l.Const(1, "1")
		if got := l.Arith(ir.ALUAdd, prev, one, ir.W32, false, "acc = prev + 1"); got != acc {
			panic(fmt.Sprintf("loopdev: acc is temp %d, tail reads %d", got, acc))
		}
		k := l.Const(loopCarried, "L")
		l.Branch(acc, ir.RelEQ, k, ir.W32, false, "if (acc == L)", "out", "carried-temp_body")
		bd := h.Block("carried-temp_body")
		i := bd.Load(c32, "i = s->i")
		one2 := bd.Const(1, "1")
		i1 := bd.Arith(ir.ALUSub, i, one2, ir.W32, false, "i - 1")
		bd.Store(c32, i1, "s->i = i - 1")
		bd.Jump("carried-temp_tail", "goto tail")
	}
	countdown(shapeParam, preg, ir.W16)
	{ // call: do { dec() } while (s->i != 0)
		arm(shapeCall, c32, "call_loop")
		l := h.Block("call_loop")
		l.Call("loopdev_dec", "dec()")
		i := l.Load(c32, "i = s->i")
		z := l.Const(0, "0")
		l.Branch(i, ir.RelNE, z, ir.W32, false, "while (i != 0)", "call_loop", "out")
		dh := b.Handler("loopdev_dec")
		db := dh.Block("body")
		di := db.Load(c32, "i = s->i")
		one := db.Const(1, "1")
		d1 := db.Arith(ir.ALUSub, di, one, ir.W32, false, "i - 1")
		db.Store(c32, d1, "s->i = i - 1")
		db.Return("return")
	}
	{ // alternate: do { if (i & 1) s->i = i - 1; else s->i = i - 1; } while (s->i != 0)
		arm(shapeAlternate, c32, "alternate_loop")
		l := h.Block("alternate_loop")
		i := l.Load(c32, "i = s->i")
		one := l.Const(1, "1")
		bit := l.Arith(ir.ALUAnd, i, one, ir.W32, false, "i & 1")
		z := l.Const(0, "0")
		l.Branch(bit, ir.RelNE, z, ir.W32, false, "if (i & 1)", "alternate_odd", "alternate_even")
		for _, side := range []string{"alternate_odd", "alternate_even"} {
			bd := h.Block(side)
			j := bd.Load(c32, "i = s->i")
			o := bd.Const(1, "1")
			j1 := bd.Arith(ir.ALUSub, j, o, ir.W32, false, "i - 1")
			bd.Store(c32, j1, "s->i = i - 1")
			zz := bd.Const(0, "0")
			bd.Branch(j1, ir.RelNE, zz, ir.W32, false, "while (i != 0)", "alternate_loop", "out")
		}
	}
	b.Dispatch("loopdev_write")
	return devutil.MustBuild(b)
}

// loopReq is one request to the loop device.
func loopReq(shape int, start, limit uint32) *interp.Request {
	data := binary.LittleEndian.AppendUint32(nil, start)
	data = binary.LittleEndian.AppendUint32(data, limit)
	return interp.NewWrite(interp.SpacePIO, uint64(shape), data)
}

// loopLab is a learned loop-device spec with the trained state and the
// machine whose guest memory the checkers read.
type loopLab struct {
	spec  *core.Spec
	start *interp.State
	att   *machine.Attached
}

// newLoopLab trains every shape with short trip counts that cover each
// branch arm, including the magic and DMA exits.
func newLoopLab(tb testing.TB) *loopLab {
	tb.Helper()
	m := machine.New(machine.WithMemory(1 << 20))
	att := m.Attach(devutil.NewBase(buildLoopDev(), nil), machine.WithPIO(0, numShapes))
	train := func(d *sedspec.Driver) error {
		runs := []struct {
			shape        int
			start, limit uint32
		}{
			{shapeUpU, 0, 3}, {shapeUpS, 0xFFFD, 2},
			{shapeMagic, 3, 0}, {shapeMagic, loopMagic + 2, 0},
			{shapeDMAWrite, dmaMagic + 2, 0}, {shapeDMAWrite, 3, 0},
		}
		for s := 0; s < numShapes; s++ {
			runs = append(runs, struct {
				shape        int
				start, limit uint32
			}{s, 3, 0})
		}
		for _, r := range runs {
			req := loopReq(r.shape, r.start, r.limit)
			if _, err := d.Out(req.Addr, req.Data); err != nil {
				return fmt.Errorf("%s: %w", shapeNames[r.shape], err)
			}
		}
		return nil
	}
	spec, err := sedspec.Learn(att, train)
	if err != nil {
		tb.Fatalf("learn: %v", err)
	}
	return &loopLab{spec: spec, start: att.Dev().State().Clone(), att: att}
}

// loopRun is everything observable from one checked round.
type loopRun struct {
	anomaly  string
	stats    checker.Stats
	shadow   []byte
	coverage *coverage.Snapshot
	steps    int
	skipped  uint64
}

// loopEngine is what a loop run observes on either engine.
type loopEngine interface {
	machine.Interposer
	Stats() checker.Stats
	Shadow() *interp.State
	RoundSteps() int
}

var loopEngines = []struct {
	name  string
	build func(*core.Spec, *interp.State, ...checker.Option) loopEngine
}{
	{"threaded", func(spec *core.Spec, start *interp.State, opts ...checker.Option) loopEngine {
		return checker.New(spec, start, opts...)
	}},
	{"threaded-noff", func(spec *core.Spec, start *interp.State, opts ...checker.Option) loopEngine {
		return checker.New(spec, start, append(opts, checker.WithoutFastForward())...)
	}},
	{"reference", func(spec *core.Spec, start *interp.State, opts ...checker.Option) loopEngine {
		return checker.NewReference(spec, start, opts...)
	}},
}

// run checks one request on a fresh engine from the trained state.
func (l *loopLab) run(t *testing.T, eng int, shape int, start, limit uint32, budget int) loopRun {
	t.Helper()
	chk := loopEngines[eng].build(l.spec, l.start,
		checker.WithEnv(l.att), checker.WithBudget(budget),
		checker.WithRecorder(nil), checker.WithStream(nil))
	var run loopRun
	if err := chk.PreIO(nil, loopReq(shape, start, limit)); err != nil {
		var a *checker.Anomaly
		if !errors.As(err, &a) {
			t.Fatalf("non-anomaly error: %v", err)
		}
		run.anomaly = fmt.Sprintf("%s block=%v src=%v %q", a.Strategy, a.Block, a.Src, a.Detail)
	}
	run.stats = chk.Stats()
	run.shadow = bytes.Clone(chk.Shadow().Bytes())
	run.steps = chk.RoundSteps()
	if c, ok := chk.(*checker.Checker); ok {
		run.coverage = c.Coverage()
		_, run.skipped = c.FastForward()
	}
	return run
}

// check runs the threaded engine with and without fast-forward and the
// reference engine on one request and pins them together.
func (l *loopLab) check(t *testing.T, shape int, start, limit uint32, budget int) loopRun {
	t.Helper()
	want := l.run(t, 0, shape, start, limit, budget)
	for eng := 1; eng < len(loopEngines); eng++ {
		got := l.run(t, eng, shape, start, limit, budget)
		label := fmt.Sprintf("%s start=%#x limit=%#x budget=%d: %s", shapeNames[shape], start, limit, budget, loopEngines[eng].name)
		if got.anomaly != want.anomaly {
			t.Errorf("%s: anomaly %q, threaded %q", label, got.anomaly, want.anomaly)
		}
		if got.stats != want.stats {
			t.Errorf("%s: stats %+v, threaded %+v", label, got.stats, want.stats)
		}
		if got.steps != want.steps {
			t.Errorf("%s: round steps %d, threaded %d", label, got.steps, want.steps)
		}
		if !bytes.Equal(got.shadow, want.shadow) {
			t.Errorf("%s: shadow state diverges", label)
		}
		if got.coverage != nil && !reflect.DeepEqual(got.coverage, want.coverage) {
			t.Errorf("%s: coverage diverges:\n  got:  %v\n  want: %v", label, got.coverage, want.coverage)
		}
	}
	if !accelerated(shape) && want.skipped != 0 {
		t.Errorf("%s start=%#x budget=%d: fast-forward skipped %d steps of a loop it must walk",
			shapeNames[shape], start, budget, want.skipped)
	}
	return want
}

// fuzzBudget maps a fuzz word onto a budget in [64, 1<<20].
func fuzzBudget(b uint32) int { return 64 + int(b%(1<<20-63)) }

// FuzzLoopFastForward drives every loop shape from fuzzed start values,
// limits and budgets: the threaded engine (with fast-forward) must match
// the reference engine exactly in anomaly, Stats and shadow bytes, the
// full-walk threaded engine in coverage too, and must never skip a shape
// it cannot prove.
func FuzzLoopFastForward(f *testing.F) {
	lab := newLoopLab(f)
	const b200k, bMax = 200_000 - 64, 1<<20 - 64
	for s := 0; s < numShapes; s++ {
		f.Add(uint8(s), uint32(0), uint32(0), uint32(b200k))
		f.Add(uint8(s), uint32(20_000), uint32(0), uint32(b200k))
		f.Add(uint8(s), uint32(0xFFFF), uint32(0), uint32(12_345-64))
	}
	f.Add(uint8(shapeDown32), uint32(0), uint32(0), uint32(bMax))
	f.Add(uint8(shapeDown8), uint32(0), uint32(0), uint32(3_000-64))
	f.Add(uint8(shapeUpU), uint32(0), uint32(20_000), uint32(b200k))
	f.Add(uint8(shapeUpU), uint32(0), uint32(0xFFFF_FFFF), uint32(b200k))
	f.Add(uint8(shapeUpS), uint32(0x8000), uint32(0x7000), uint32(b200k))
	f.Add(uint8(shapeMagic), uint32(loopMagic+30_000), uint32(0), uint32(b200k))
	f.Add(uint8(shapeMagic), uint32(loopMagic+1), uint32(0), uint32(b200k))
	f.Add(uint8(shapeHeadGuard), uint32(30_000), uint32(0), uint32(b200k))
	f.Add(uint8(shapeHeadGuard), uint32(100_000), uint32(0), uint32(bMax))
	f.Add(uint8(shapeDMAWrite), uint32(dmaMagic+15_000), uint32(0), uint32(b200k))
	f.Add(uint8(shapeCarried), uint32(20_000), uint32(0), uint32(b200k))
	f.Add(uint8(shapeParam), uint32(0), uint32(0), uint32(b200k))
	f.Fuzz(func(t *testing.T, shape uint8, start, limit, budget uint32) {
		lab.check(t, int(shape)%numShapes, start, limit, fuzzBudget(budget))
	})
}

// TestFastForwardSkips pins how much the fast-forward saves: the loops it
// can prove repeatable skip at least 90% of a long round's steps, the
// others none (checked inside check), and CVE-2016-7909's ring scan at the
// default budget is among the former.
func TestFastForwardSkips(t *testing.T) {
	lab := newLoopLab(t)
	cases := []struct {
		shape        int
		start, limit uint32
		budget       int
	}{
		{shapeDown16, 0, 0, 200_000},
		{shapeDown32, 0, 0, 1 << 20},
		{shapeUpU, 0, 0xFFFF_FFFF, 1 << 20},
		{shapeUpS, 0x8000, 0x7FFF, 200_000},
		{shapeMagic, loopMagic + 100_000, 0, 1 << 20},
		{shapeHeadGuard, 100_000, 0, 1 << 20},
	}
	for _, tc := range cases {
		run := lab.check(t, tc.shape, tc.start, tc.limit, tc.budget)
		if run.skipped*10 < uint64(run.steps)*9 {
			t.Errorf("%s: skipped %d of %d steps, want >= 90%%", shapeNames[tc.shape], run.skipped, run.steps)
		}
	}
	for s := shapeSecond; s < numShapes; s++ {
		lab.check(t, s, 0x10000, 0, 200_000)
	}

	p := cvesim.PCNet7909()
	m := machine.New(machine.WithMemory(1 << 20))
	dev, aopts := p.Build()
	att := m.Attach(dev, aopts...)
	spec, err := sedspec.Learn(att, p.Train)
	if err != nil {
		t.Fatalf("learn: %v", err)
	}
	chk := sedspec.Protect(att, spec, checker.WithStream(nil))
	var a *checker.Anomaly
	if err := p.Exploit(sedspec.NewDriver(att), m); !errors.As(err, &a) {
		t.Fatalf("CVE-2016-7909 not detected: %v", err)
	}
	attempts, skipped := chk.FastForward()
	if attempts != 1 || skipped*10 < uint64(chk.RoundSteps())*9 {
		t.Errorf("CVE-2016-7909: %d attempts, skipped %d of %d steps; want 1 attempt and >= 90%%",
			attempts, skipped, chk.RoundSteps())
	}
}

// TestFastForwardIdleOnBenignTraffic: clean rounds never reach the gate,
// so a benign stream makes no fast-forward attempt.
func TestFastForwardIdleOnBenignTraffic(t *testing.T) {
	spec, reqs, start, att := benignStream(t)
	chk := checker.New(spec, start, checker.WithEnv(att), checker.WithStream(nil))
	for _, req := range reqs {
		if err := chk.PreIO(nil, req); err != nil {
			t.Fatal(err)
		}
	}
	if attempts, _ := chk.FastForward(); attempts != 0 {
		t.Errorf("benign stream made %d fast-forward attempts", attempts)
	}
}
