package machine

import (
	"errors"
	"testing"

	"sedspec/internal/interp"
	"sedspec/internal/ir"
)

// toyDevice is a minimal Device for machine tests: port 0 stores a value,
// port 1 raises the IRQ and does DMA from a guest address in the payload.
type toyDevice struct {
	prog  *ir.Program
	state *interp.State
}

func newToyDevice(t *testing.T) *toyDevice {
	t.Helper()
	b := ir.NewBuilder("toy")
	reg := b.Int("reg", ir.W8, ir.HWRegister())
	buf := b.Buf("buf", 32)

	h := b.Handler("dispatch")
	e := h.Block("entry").Entry()
	addr := e.IOAddr("addr = req->addr")
	base := e.Const(0x100, "base")
	rel := e.Arith(ir.ALUSub, addr, base, ir.W16, false, "rel = addr - base")
	e.Switch(rel, "switch (rel)", "out",
		ir.Case(0, "store"),
		ir.Case(1, "dma"),
	)

	s := h.Block("store")
	v := s.IOIn(ir.W8, "v = ioread8()")
	s.Store(reg, v, "s->reg = v")
	s.Jump("out", "goto out")

	d := h.Block("dma")
	gaddr := d.IOIn(ir.W32, "gaddr = ioread32()")
	idx := d.Const(0, "0")
	n := d.Const(16, "16")
	d.DMAToBuf(buf, idx, gaddr, n, false, "dma_read(buf, gaddr, 16)")
	nw := d.Const(1024, "work = 1KiB")
	d.Work(nw, "emulate work")
	d.IRQRaise("raise irq")
	d.Jump("out", "goto out")

	h.Block("out").Exit().Halt("return")
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return &toyDevice{prog: prog, state: interp.NewState(prog)}
}

func (d *toyDevice) Name() string         { return "toy" }
func (d *toyDevice) Program() *ir.Program { return d.prog }
func (d *toyDevice) State() *interp.State { return d.state }
func (d *toyDevice) Reset()               { d.state.Reset() }

func TestGuestMemoryBounds(t *testing.T) {
	g := NewGuestMemory(64)
	if err := g.Write(0, []byte{1, 2, 3}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	buf := make([]byte, 3)
	if err := g.Read(0, buf); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if buf[2] != 3 {
		t.Errorf("buf = %v", buf)
	}
	if err := g.Read(63, buf); err == nil {
		t.Error("out-of-range read should fail")
	}
	if err := g.Write(62, buf); err == nil {
		t.Error("out-of-range write should fail")
	}
	// Overflow-resistant addressing.
	if err := g.Read(^uint64(0), buf[:1]); err == nil {
		t.Error("wrapping address should fail")
	}
}

func TestIRQController(t *testing.T) {
	c := NewIRQController()
	c.Assert(3)
	c.Assert(3) // still asserted: no second delivery
	if got := c.Deliveries(3); got != 1 {
		t.Errorf("Deliveries = %d, want 1", got)
	}
	if !c.Level(3) {
		t.Error("line should be high")
	}
	c.Deassert(3)
	c.Assert(3)
	if got := c.Deliveries(3); got != 2 {
		t.Errorf("Deliveries = %d, want 2", got)
	}
}

func TestDispatchRouting(t *testing.T) {
	m := New()
	dev := newToyDevice(t)
	m.Attach(dev, WithPIO(0x100, 4))

	if _, err := m.PIOWrite(0x100, []byte{0x42}); err != nil {
		t.Fatalf("PIOWrite: %v", err)
	}
	if got, _ := dev.state.IntByName("reg"); got != 0x42 {
		t.Errorf("reg = %#x, want 0x42", got)
	}

	_, err := m.PIOWrite(0x500, []byte{1})
	if !errors.Is(err, ErrNoDevice) {
		t.Errorf("unclaimed port error = %v, want ErrNoDevice", err)
	}
}

func TestDMAAndIRQThroughMachine(t *testing.T) {
	m := New(WithMemory(1 << 16))
	dev := newToyDevice(t)
	a := m.Attach(dev, WithPIO(0x100, 4), WithIRQLine(5))

	// Seed guest memory, then ask the device to DMA it in.
	want := []byte("0123456789abcdef")
	if err := m.Mem.Write(0x2000, want); err != nil {
		t.Fatalf("seed: %v", err)
	}
	if _, err := m.PIOWrite(0x101, []byte{0x00, 0x20, 0x00, 0x00}); err != nil {
		t.Fatalf("PIOWrite: %v", err)
	}
	got := dev.state.Buf(dev.prog.FieldIndex("buf"))[:16]
	if string(got) != string(want) {
		t.Errorf("buf = %q, want %q", got, want)
	}
	if !m.IRQ.Level(5) {
		t.Error("irq line 5 should be asserted")
	}
	if a.IRQLine() != 5 {
		t.Errorf("IRQLine = %d", a.IRQLine())
	}
}

func TestWorkAdvancesClock(t *testing.T) {
	m := New()
	dev := newToyDevice(t)
	m.Attach(dev, WithPIO(0x100, 4))
	before := m.Clock.Now()
	if _, err := m.PIOWrite(0x101, []byte{0, 0, 0, 0}); err != nil {
		t.Fatalf("PIOWrite: %v", err)
	}
	// 1KiB work at 100 B/µs = 10µs, plus 1µs dispatch cost.
	elapsed := m.Clock.Now() - before
	if elapsed.Microseconds() != 11 {
		t.Errorf("elapsed = %v, want 11µs", elapsed)
	}
}

// blockingInterposer rejects all writes to a specific port.
type blockingInterposer struct {
	port uint64
	halt *Machine
	hits int
}

func (b *blockingInterposer) PreIO(_ Device, req *interp.Request) error {
	b.hits++
	if req.Addr == b.port {
		if b.halt != nil {
			b.halt.Halt()
		}
		return errors.New("anomaly detected")
	}
	return nil
}

func TestInterposerBlocks(t *testing.T) {
	m := New()
	dev := newToyDevice(t)
	a := m.Attach(dev, WithPIO(0x100, 4))
	ip := &blockingInterposer{port: 0x100}
	a.AddInterposer(ip)

	_, err := m.PIOWrite(0x100, []byte{0x99})
	if !errors.Is(err, ErrBlocked) {
		t.Fatalf("err = %v, want ErrBlocked", err)
	}
	if got, _ := dev.state.IntByName("reg"); got != 0 {
		t.Error("blocked write must not reach the device")
	}
	// Other ports pass through.
	if _, err := m.PIOWrite(0x103, nil); err != nil {
		t.Fatalf("pass-through failed: %v", err)
	}
	if ip.hits != 2 {
		t.Errorf("interposer hits = %d, want 2", ip.hits)
	}
	a.ClearInterposers()
	if _, err := m.PIOWrite(0x100, []byte{0x99}); err != nil {
		t.Fatalf("after clear: %v", err)
	}
}

func TestInterposerHaltsMachine(t *testing.T) {
	m := New()
	dev := newToyDevice(t)
	a := m.Attach(dev, WithPIO(0x100, 4))
	a.AddInterposer(&blockingInterposer{port: 0x100, halt: m})

	if _, err := m.PIOWrite(0x100, []byte{0x99}); err == nil {
		t.Fatal("want error")
	}
	if !m.Halted() {
		t.Fatal("machine should be halted")
	}
	if _, err := m.PIOWrite(0x103, nil); !errors.Is(err, ErrHalted) {
		t.Errorf("post-halt err = %v, want ErrHalted", err)
	}
	m.Resume()
	if _, err := m.PIOWrite(0x103, nil); err != nil {
		t.Errorf("after Resume: %v", err)
	}
}

func TestDeviceLookup(t *testing.T) {
	m := New()
	dev := newToyDevice(t)
	m.Attach(dev, WithPIO(0x100, 4))
	if m.Device("toy") == nil {
		t.Error("Device(toy) = nil")
	}
	if m.Device("ghost") != nil {
		t.Error("Device(ghost) should be nil")
	}
	if len(m.Devices()) != 1 {
		t.Error("Devices() should have 1 entry")
	}
}

func TestMMIORouting(t *testing.T) {
	m := New()
	dev := newToyDevice(t)
	m.Attach(dev, WithMMIO(0xE000_0100, 4))
	if _, err := m.MMIOWrite(0xE000_0100, []byte{0x7}); err != nil {
		t.Fatalf("MMIOWrite: %v", err)
	}
	if got, _ := dev.state.IntByName("reg"); got != 0x7 {
		t.Errorf("reg = %#x, want 0x7", got)
	}
	if _, _, err := m.MMIORead(0xE000_0200); !errors.Is(err, ErrNoDevice) {
		t.Errorf("err = %v, want ErrNoDevice", err)
	}
}

// TestAttachedCheckpointResume: resuming a checkpoint on a fresh
// attachment of the same device restores everything a later request can
// read — guest memory, the control structure, the round counter's
// EnvTurn parity, link and media, the step budget, the interrupt lines —
// and leaves the checkpoint reusable.
func TestAttachedCheckpointResume(t *testing.T) {
	build := func() (*Machine, *toyDevice, *Attached) {
		m := New(WithMemory(1 << 16))
		dev := newToyDevice(t)
		return m, dev, m.Attach(dev, WithPIO(0x100, 4), WithIRQLine(5))
	}
	m, dev, a := build()
	if err := m.Mem.Write(0x2000, []byte("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	// Three rounds: an odd count, so a fresh attachment's EnvTurn
	// parity differs until the resume.
	for _, req := range [][]byte{{0x42}, nil, {0x43}} {
		port := uint64(0x100)
		if req == nil {
			port, req = 0x101, []byte{0x00, 0x20, 0x00, 0x00}
		}
		if _, err := m.PIOWrite(port, req); err != nil {
			t.Fatal(err)
		}
	}
	a.SetLink(false)
	a.Interp().SetStepBudget(777)
	cp := a.Checkpoint()

	for i := 0; i < 2; i++ {
		m2, dev2, b := build()
		if err := b.Resume(cp); err != nil {
			t.Fatal(err)
		}
		if string(dev2.state.Bytes()) != string(dev.state.Bytes()) {
			t.Errorf("resume %d: control structure differs", i)
		}
		got := make([]byte, 16)
		if err := m2.Mem.Read(0x2000, got); err != nil || string(got) != "0123456789abcdef" {
			t.Errorf("resume %d: guest memory %q, %v", i, got, err)
		}
		if b.ReadEnv(ir.EnvTurn) != 1 || b.ReadEnv(ir.EnvLink) != 0 || b.ReadEnv(ir.EnvMedia) != 1 {
			t.Errorf("resume %d: env turn/link/media = %d/%d/%d", i,
				b.ReadEnv(ir.EnvTurn), b.ReadEnv(ir.EnvLink), b.ReadEnv(ir.EnvMedia))
		}
		if b.Interp().StepBudget() != 777 {
			t.Errorf("resume %d: step budget %d", i, b.Interp().StepBudget())
		}
		if !m2.IRQ.Level(5) || m2.IRQ.Deliveries(5) != 1 {
			t.Errorf("resume %d: irq line 5 level %t, deliveries %d", i, m2.IRQ.Level(5), m2.IRQ.Deliveries(5))
		}
		// Writing the resumed machine leaves the checkpoint as it was.
		m2.IRQ.Deassert(5)
		if err := m2.Mem.Write(0x2000, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
}
