package ir

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestWidthBytes(t *testing.T) {
	tests := []struct {
		w    Width
		want int
	}{
		{W8, 1}, {W16, 2}, {W32, 4}, {W64, 8}, {Width(0), 0}, {Width(99), 0},
	}
	for _, tt := range tests {
		if got := tt.w.Bytes(); got != tt.want {
			t.Errorf("Width(%d).Bytes() = %d, want %d", tt.w, got, tt.want)
		}
	}
}

func TestWidthMask(t *testing.T) {
	tests := []struct {
		w    Width
		want uint64
	}{
		{W8, 0xFF}, {W16, 0xFFFF}, {W32, 0xFFFF_FFFF}, {W64, ^uint64(0)},
	}
	for _, tt := range tests {
		if got := tt.w.Mask(); got != tt.want {
			t.Errorf("%v.Mask() = %#x, want %#x", tt.w, got, tt.want)
		}
	}
}

func TestWidthSignedRange(t *testing.T) {
	tests := []struct {
		w        Width
		max, min int64
	}{
		{W8, 127, -128},
		{W16, 32767, -32768},
		{W32, 2147483647, -2147483648},
		{W64, 9223372036854775807, -9223372036854775808},
	}
	for _, tt := range tests {
		if got := tt.w.MaxSigned(); got != tt.max {
			t.Errorf("%v.MaxSigned() = %d, want %d", tt.w, got, tt.max)
		}
		if got := tt.w.MinSigned(); got != tt.min {
			t.Errorf("%v.MinSigned() = %d, want %d", tt.w, got, tt.min)
		}
	}
}

func TestSignExtend(t *testing.T) {
	tests := []struct {
		w    Width
		v    uint64
		want int64
	}{
		{W8, 0x7F, 127},
		{W8, 0x80, -128},
		{W8, 0xFF, -1},
		{W16, 0xFFFF, -1},
		{W16, 0x8000, -32768},
		{W32, 0xFFFF_FFFF, -1},
		{W32, 0x7FFF_FFFF, 2147483647},
		{W64, 0xFFFF_FFFF_FFFF_FFFF, -1},
		{W8, 0x1FF, -1}, // high bits ignored
	}
	for _, tt := range tests {
		if got := tt.w.SignExtend(tt.v); got != tt.want {
			t.Errorf("%v.SignExtend(%#x) = %d, want %d", tt.w, tt.v, got, tt.want)
		}
	}
}

func TestSignExtendRoundTripProperty(t *testing.T) {
	// For any value, sign-extending and re-truncating preserves the low
	// bits at every width.
	prop := func(v uint64) bool {
		for _, w := range []Width{W8, W16, W32, W64} {
			if uint64(w.SignExtend(v))&w.Mask() != v&w.Mask() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestRelEvalUnsigned(t *testing.T) {
	tests := []struct {
		r    Rel
		a, b uint64
		want bool
	}{
		{RelEQ, 5, 5, true},
		{RelEQ, 5, 6, false},
		{RelNE, 5, 6, true},
		{RelLT, 1, 2, true},
		{RelLT, 2, 1, false},
		{RelLE, 2, 2, true},
		{RelGT, 3, 2, true},
		{RelGE, 2, 3, false},
		// 0xFF unsigned at W8 is 255, larger than 1.
		{RelGT, 0xFF, 1, true},
	}
	for _, tt := range tests {
		if got := tt.r.Eval(tt.a, tt.b, W8, false); got != tt.want {
			t.Errorf("(%d %v %d) unsigned = %v, want %v", tt.a, tt.r, tt.b, got, tt.want)
		}
	}
}

func TestRelEvalSigned(t *testing.T) {
	// 0xFF signed at W8 is -1, smaller than 1.
	if !RelLT.Eval(0xFF, 1, W8, true) {
		t.Error("signed -1 < 1 should hold")
	}
	if RelGT.Eval(0xFF, 1, W8, true) {
		t.Error("signed -1 > 1 should not hold")
	}
	if !RelGE.Eval(0x80, 0x80, W8, true) {
		t.Error("signed -128 >= -128 should hold")
	}
}

func TestRelEvalTotalityProperty(t *testing.T) {
	// Exactly one of <, ==, > holds for any pair, signed or not.
	prop := func(a, b uint64, signed bool) bool {
		for _, w := range []Width{W8, W16, W32, W64} {
			lt := RelLT.Eval(a, b, w, signed)
			eq := RelEQ.Eval(a, b, w, signed)
			gt := RelGT.Eval(a, b, w, signed)
			n := 0
			for _, x := range []bool{lt, eq, gt} {
				if x {
					n++
				}
			}
			if n != 1 {
				return false
			}
			if RelLE.Eval(a, b, w, signed) != (lt || eq) {
				return false
			}
			if RelGE.Eval(a, b, w, signed) != (gt || eq) {
				return false
			}
			if RelNE.Eval(a, b, w, signed) == eq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// buildToy constructs a minimal two-handler device program used by several
// tests in this package.
func buildToy(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("toy")
	reg := b.Int("reg", W8, HWRegister())
	buf := b.Buf("data", 16)
	pos := b.Int("pos", W16)
	cb := b.Func("cb")
	_ = buf

	h := b.Handler("toy_mmio_write")
	e := h.Block("entry").Entry()
	addr := e.IOAddr("addr = req->addr")
	e.Switch(addr, "switch (addr)", "exit",
		Case(0, "do_reg"),
		Case(1, "do_data"),
	)

	r := h.Block("do_reg")
	v := r.IOIn(W8, "v = ioread8()")
	r.Store(reg, v, "s->reg = v")
	r.Jump("exit", "goto out")

	d := h.Block("do_data")
	v2 := d.IOIn(W8, "v = ioread8()")
	p := d.Load(pos, "p = s->pos")
	d.BufStore(buf, p, v2, W16, false, "s->data[p] = v")
	one := d.Const(1, "1")
	p2 := d.Arith(ALUAdd, p, one, W16, false, "p = p + 1")
	d.Store(pos, p2, "s->pos = p")
	d.CallPtr(cb, "s->cb()")
	d.Jump("exit", "goto out")

	x := h.Block("exit").Exit()
	x.Halt("return")

	cbh := b.Handler("toy_irq_cb")
	cbb := cbh.Block("body")
	cbb.IRQRaise("raise irq")
	cbb.Return("return")

	b.Dispatch("toy_mmio_write")
	p2prog, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p2prog
}

func TestBuilderBuild(t *testing.T) {
	p := buildToy(t)
	if p.ArenaSize != 1+16+2+8 {
		t.Errorf("ArenaSize = %d, want 27", p.ArenaSize)
	}
	if p.NumBlocks() != 5 {
		t.Errorf("NumBlocks = %d, want 5", p.NumBlocks())
	}
	if p.DispatchHandler != 0 {
		t.Errorf("DispatchHandler = %d, want 0", p.DispatchHandler)
	}
	if got := p.FieldIndex("pos"); got != 2 {
		t.Errorf("FieldIndex(pos) = %d, want 2", got)
	}
	if got := p.FieldIndex("missing"); got != -1 {
		t.Errorf("FieldIndex(missing) = %d, want -1", got)
	}
	if got := p.HandlerIndex("toy_irq_cb"); got != 1 {
		t.Errorf("HandlerIndex(toy_irq_cb) = %d, want 1", got)
	}
}

func TestFieldLayoutAdjacency(t *testing.T) {
	p := buildToy(t)
	// The field after the 16-byte buffer must start immediately at its
	// end: an overflow off "data" lands on "pos". This adjacency is what
	// the CVE exploit simulations rely on.
	data := p.Fields[p.FieldIndex("data")]
	pos := p.Fields[p.FieldIndex("pos")]
	if pos.Offset != data.Offset+data.Size {
		t.Errorf("pos.Offset = %d, want %d", pos.Offset, data.Offset+data.Size)
	}
}

func TestBlockAddressesUniqueAndResolvable(t *testing.T) {
	p := buildToy(t)
	addrs := p.SortedBlockAddrs()
	if len(addrs) != p.NumBlocks() {
		t.Fatalf("got %d unique addresses, want %d", len(addrs), p.NumBlocks())
	}
	for _, a := range addrs {
		ref, ok := p.BlockAt(a)
		if !ok {
			t.Fatalf("BlockAt(%#x) not found", a)
		}
		if p.Block(ref).Addr != a {
			t.Errorf("address mismatch at %#x", a)
		}
	}
	if _, ok := p.BlockAt(0xdead); ok {
		t.Error("BlockAt(0xdead) should not resolve")
	}
}

func TestRegionAddressSeparation(t *testing.T) {
	b := NewBuilder("regions")
	h := b.Handler("dev")
	blk := h.Block("e").Entry()
	blk.Halt("return")
	lh := b.Handler("helper", Library())
	lb := lh.Block("e")
	lb.Return("return")
	kh := b.Handler("syscall", Kernel())
	kb := kh.Block("e")
	kb.Return("return")
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	devAddr := p.Handlers[0].Blocks[0].Addr
	libAddr := p.Handlers[1].Blocks[0].Addr
	kernAddr := p.Handlers[2].Blocks[0].Addr
	if devAddr < DeviceBase || devAddr >= LibraryBase {
		t.Errorf("device handler at %#x outside device region", devAddr)
	}
	if libAddr < LibraryBase || libAddr >= KernelBase {
		t.Errorf("library handler at %#x outside library region", libAddr)
	}
	if kernAddr < KernelBase {
		t.Errorf("kernel handler at %#x outside kernel region", kernAddr)
	}
	if p.DeviceCodeEnd <= devAddr {
		t.Errorf("DeviceCodeEnd %#x does not cover device code", p.DeviceCodeEnd)
	}
}

func TestBuilderErrors(t *testing.T) {
	tests := []struct {
		name    string
		build   func(b *Builder)
		wantSub string
	}{
		{
			name: "duplicate field",
			build: func(b *Builder) {
				b.Int("x", W8)
				b.Int("x", W8)
			},
			wantSub: "duplicate field",
		},
		{
			name: "unknown label",
			build: func(b *Builder) {
				h := b.Handler("h")
				h.Block("e").Jump("nowhere", "goto nowhere")
			},
			wantSub: "unknown block label",
		},
		{
			name: "duplicate label",
			build: func(b *Builder) {
				h := b.Handler("h")
				h.Block("e").Halt("x")
				h.Block("e").Halt("x")
			},
			wantSub: "duplicate block label",
		},
		{
			name: "unknown call target",
			build: func(b *Builder) {
				h := b.Handler("h")
				blk := h.Block("e")
				blk.Call("ghost", "ghost()")
				blk.Halt("x")
			},
			wantSub: "unknown handler",
		},
		{
			name: "unknown dispatch",
			build: func(b *Builder) {
				h := b.Handler("h")
				h.Block("e").Halt("x")
				b.Dispatch("ghost")
			},
			wantSub: "dispatch handler",
		},
		{
			name: "missing terminator",
			build: func(b *Builder) {
				h := b.Handler("h")
				h.Block("e")
			},
			wantSub: "missing terminator",
		},
		{
			name: "double terminator",
			build: func(b *Builder) {
				h := b.Handler("h")
				blk := h.Block("e")
				blk.Halt("x")
				blk.Return("y")
			},
			wantSub: "terminator already set",
		},
		{
			name: "non-positive buffer",
			build: func(b *Builder) {
				b.Buf("buf", 0)
				h := b.Handler("h")
				h.Block("e").Halt("x")
			},
			wantSub: "non-positive size",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := NewBuilder("bad")
			tt.build(b)
			_, err := b.Build()
			if err == nil {
				t.Fatal("Build succeeded, want error")
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Errorf("error %q does not contain %q", err, tt.wantSub)
			}
		})
	}
}

func TestValidateFieldKindMismatch(t *testing.T) {
	b := NewBuilder("bad")
	f := b.Int("x", W8)
	h := b.Handler("h")
	blk := h.Block("e")
	idx := blk.Const(0, "0")
	blk.BufStore(FieldID(f), idx, idx, W8, false, "x[0] = 0") // int used as buf
	blk.Halt("return")
	_, err := b.Build()
	if err == nil || !strings.Contains(err.Error(), "want buf") {
		t.Errorf("Build error = %v, want field-kind mismatch", err)
	}
}

func TestOpFieldAccessors(t *testing.T) {
	store := Op{Code: OpStore, Field: 3}
	if f, ok := store.WritesField(); !ok || f != 3 {
		t.Errorf("OpStore.WritesField() = %d,%v", f, ok)
	}
	load := Op{Code: OpLoad, Field: 2}
	if _, ok := load.WritesField(); ok {
		t.Error("OpLoad should not write a field")
	}
	if f, ok := load.ReadsField(); !ok || f != 2 {
		t.Errorf("OpLoad.ReadsField() = %d,%v", f, ok)
	}
}

func TestTermSuccessors(t *testing.T) {
	jump := Term{Kind: TermJump, Target: 7}
	if got := jump.Successors(nil); len(got) != 1 || got[0] != 7 {
		t.Errorf("jump successors = %v", got)
	}
	br := Term{Kind: TermBranch, Taken: 1, NotTaken: 2}
	if got := br.Successors(nil); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("branch successors = %v", got)
	}
	sw := Term{Kind: TermSwitch, Cases: []SwitchCase{{1, 3}, {2, 4}}, Default: 5}
	if got := sw.Successors(nil); len(got) != 3 {
		t.Errorf("switch successors = %v", got)
	}
	ret := Term{Kind: TermReturn}
	if got := ret.Successors(nil); len(got) != 0 {
		t.Errorf("return successors = %v", got)
	}
}

func TestOpAddr(t *testing.T) {
	p := buildToy(t)
	b := &p.Handlers[0].Blocks[0]
	if b.OpAddr(0) != b.Addr {
		t.Error("OpAddr(0) should equal block address")
	}
	if b.TermAddr() != b.Addr+uint64(len(b.Ops)*4) {
		t.Error("TermAddr mismatch")
	}
}

func TestFieldCType(t *testing.T) {
	tests := []struct {
		f    Field
		want string
	}{
		{Field{Name: "msr", Kind: FieldInt, Width: W8}, "uint8_t msr"},
		{Field{Name: "pos", Kind: FieldInt, Width: W32, Signed: true}, "int32_t pos"},
		{Field{Name: "fifo", Kind: FieldBuf, Size: 512}, "uint8_t fifo[512]"},
		{Field{Name: "irq", Kind: FieldFunc}, "void (*irq)(void)"},
	}
	for _, tt := range tests {
		if got := tt.f.CType(); got != tt.want {
			t.Errorf("CType() = %q, want %q", got, tt.want)
		}
	}
}

func TestDefiniteTempsComputedOnceAtBuild(t *testing.T) {
	p := buildToy(t)
	if got, want := p.DefiniteTemps(), p.definiteTemps(); got != want {
		t.Fatalf("built program: DefiniteTemps() = %v, analysis says %v", got, want)
	}
	// A program that never went through Build has no stored answer and
	// is analysed on each call: a switch on a never-written temp fails.
	bare := &Program{Handlers: []Handler{{
		NumTemps: 1,
		Blocks:   []Block{{Term: Term{Kind: TermSwitch, A: 0}}},
	}}}
	if bare.DefiniteTemps() {
		t.Fatal("unbuilt program reading an unassigned temp reported definitely assigned")
	}
	bare.Handlers[0].Blocks = []Block{{Term: Term{Kind: TermReturn}}}
	if !bare.DefiniteTemps() {
		t.Fatal("unbuilt program with no temp reads reported not definitely assigned")
	}
}
