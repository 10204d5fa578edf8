// Package testdev implements a small synthetic storage-style controller
// exercising every SEDSpec-relevant construct in a controlled way: command
// decision and end blocks, a FIFO with an index parameter and a seeded
// Venom-style bug, a function-pointer completion callback, an
// environment-dependent branch (sync point), and a rarely used diagnostic
// command for false-positive studies. The five real device models follow
// the same pattern at larger scale; tests use this one for precise
// assertions.
package testdev

import (
	"sedspec/internal/devices/devutil"
	"sedspec/internal/interp"
	"sedspec/internal/ir"
)

// Port layout.
const (
	PortCmd  = 0 // command byte, then command-specific payload
	PortData = 1 // data byte pushed into the FIFO
	PortEnv  = 2 // environment-dependent status refresh
	// PortCount is the port window size.
	PortCount = 3
)

// Commands.
const (
	CmdReset      = 0x01
	CmdWriteBegin = 0x02 // payload: transfer length byte
	CmdRead       = 0x03
	CmdStatus     = 0x04
	CmdDiag       = 0x7F // rare diagnostic command
)

// FIFO capacity in bytes.
const FifoSize = 16

// Options configure seeded vulnerabilities.
type Options struct {
	// FixVenom installs the bounds check the Venom-style bug omits: with
	// it, the data port stops accepting bytes at the FIFO's capacity.
	FixVenom bool
}

// Device is the test controller.
type Device struct {
	*devutil.Base
}

// programs holds one built program per Options variant.
var programs = devutil.NewPrograms(build)

// New returns a fresh device at power-on values. Every instance of
// one Options variant runs the same shared program. Without options the
// Venom-style bug is present, matching an unpatched QEMU.
func New(opts Options) *Device {
	return &Device{Base: devutil.NewBase(programs.Get(opts), func(st *interp.State, p *ir.Program) {
		devutil.SetFunc(st, p, "irq_cb", "testdev_complete")
	})}
}

func build(opts Options) *ir.Program {
	b := ir.NewBuilder("testdev")

	// Control structure. Layout order matters: a FIFO overflow walks
	// through data_pos/data_len and then clobbers irq_cb, enabling the
	// control-flow-hijack exploit path.
	fifo := b.Buf("fifo", FifoSize)
	dataPos := b.Int("data_pos", ir.W16)
	dataLen := b.Int("data_len", ir.W16)
	irqCb := b.Func("irq_cb")
	status := b.Int("status", ir.W8, ir.HWRegister())
	cmdReg := b.Int("cmd", ir.W8, ir.HWRegister())

	// --- dispatch: route by port ---
	h := b.Handler("testdev_ioport_write")
	e := h.Block("entry").Entry()
	addr := e.IOAddr("addr = req->addr")
	e.Switch(addr, "switch (addr)", "out",
		ir.Case(PortCmd, "cmd"),
		ir.Case(PortData, "data"),
		ir.Case(PortEnv, "envp"),
	)

	// --- command port: command decision ---
	c := h.Block("cmd").CmdDecision()
	cv := c.IOIn(ir.W8, "cmd = ioread8()")
	c.Store(cmdReg, cv, "s->cmd = cmd")
	cv2 := c.Load(cmdReg, "cmd = s->cmd")
	c.Switch(cv2, "switch (s->cmd)", "badcmd",
		ir.Case(CmdReset, "c_reset"),
		ir.Case(CmdWriteBegin, "c_wbegin"),
		ir.Case(CmdRead, "c_read"),
		ir.Case(CmdStatus, "c_status"),
		ir.Case(CmdDiag, "c_diag"),
	)

	r := h.Block("c_reset").CmdEnd()
	z := r.Const(0, "0")
	r.Store(dataPos, z, "s->data_pos = 0")
	r.Store(dataLen, z, "s->data_len = 0")
	r.Store(status, z, "s->status = 0")
	r.Jump("out", "goto out")

	wb := h.Block("c_wbegin").CmdEnd()
	ln := wb.IOIn(ir.W8, "len = ioread8()")
	wb.Store(dataLen, ln, "s->data_len = len")
	zz := wb.Const(0, "0")
	wb.Store(dataPos, zz, "s->data_pos = 0")
	busy := wb.Const(0x10, "STATUS_BUSY")
	wb.Store(status, busy, "s->status = STATUS_BUSY")
	wb.Jump("out", "goto out")

	rd := h.Block("c_read")
	rl := rd.Load(dataLen, "n = s->data_len")
	rd.DMAFromBuf(fifo, rd.Const(0, "0"), rd.Const(0x1000, "dst"), rl, false,
		"copy_to_guest(dst, s->fifo, n)")
	rd.Work(rl, "transfer_medium(n)")
	rd.Jump("c_read_done", "goto done")
	rdd := h.Block("c_read_done").CmdEnd()
	done := rdd.Const(0x01, "STATUS_DONE")
	rdd.Store(status, done, "s->status = STATUS_DONE")
	rdd.CallPtr(irqCb, "s->irq_cb()")
	rdd.Jump("out", "goto out")

	st := h.Block("c_status").CmdEnd()
	sv := st.Load(status, "v = s->status")
	st.IOOut(sv, ir.W8, "iowrite8(v)")
	st.Jump("out", "goto out")

	dg := h.Block("c_diag").CmdEnd()
	diag := dg.Const(0xD1, "DIAG_MAGIC")
	dg.IOOut(diag, ir.W8, "iowrite8(DIAG_MAGIC)")
	dg.Jump("out", "goto out")

	bad := h.Block("badcmd").CmdEnd()
	errv := bad.Const(0x80, "STATUS_ERR")
	bad.Store(status, errv, "s->status = STATUS_ERR")
	bad.Jump("out", "goto out")

	// --- data port: the Venom-style FIFO path ---
	d := h.Block("data")
	v := d.IOIn(ir.W8, "v = ioread8()")
	p := d.Load(dataPos, "p = s->data_pos")
	if opts.FixVenom {
		lim := d.Const(FifoSize, "FIFO_SIZE")
		d.Branch(p, ir.RelGE, lim, ir.W16, false,
			"if (p >= FIFO_SIZE) /* patched */", "out", "data_store")
	} else {
		// Unpatched: no capacity check; p grows without bound
		// (CVE-2015-3456 shape).
		d.Jump("data_store", "/* no bounds check */")
	}
	ds := h.Block("data_store")
	ds.BufStore(fifo, p, v, ir.W16, false, "s->fifo[p] = v")
	one := ds.Const(1, "1")
	p2 := ds.Arith(ir.ALUAdd, p, one, ir.W16, false, "p + 1")
	ds.Store(dataPos, p2, "s->data_pos = p + 1")
	ds.Jump("out", "goto out")

	// --- env port: branch on link status (sync point) ---
	ev := h.Block("envp")
	link := ev.EnvRead(ir.EnvLink, "up = backend_link_status()")
	onev := ev.Const(1, "1")
	ev.Branch(link, ir.RelEQ, onev, ir.W8, false, "if (up)", "env_up", "env_down")
	eu := h.Block("env_up")
	s1 := eu.Load(status, "v = s->status")
	bit := eu.Const(0x40, "STATUS_LINK")
	s2 := eu.Arith(ir.ALUOr, s1, bit, ir.W8, false, "v | STATUS_LINK")
	eu.Store(status, s2, "s->status = v")
	eu.Jump("out", "goto out")
	ed := h.Block("env_down")
	s3 := ed.Load(status, "v = s->status")
	m := ed.Const(0xBF, "~STATUS_LINK")
	s4 := ed.Arith(ir.ALUAnd, s3, m, ir.W8, false, "v & ~STATUS_LINK")
	ed.Store(status, s4, "s->status = v")
	ed.Jump("out", "goto out")

	h.Block("out").Exit().Halt("return")

	// Legitimate completion callback.
	cb := b.Handler("testdev_complete")
	cbb := cb.Block("body")
	cbb.IRQRaise("qemu_irq_raise(s->irq)")
	cbb.Return("return")

	// A host function an attacker would pivot to: standing in for
	// arbitrary code execution after a control-flow hijack.
	gd := b.Handler("host_gadget")
	gdb := gd.Block("body")
	pw := gdb.Const(0xFF, "0xff")
	gdb.Store(status, pw, "/* attacker-controlled execution */")
	gdb.Return("return")

	b.Dispatch("testdev_ioport_write")
	return devutil.MustBuild(b)
}
