// Package fdc models the Intel 82078 floppy disk controller as emulated by
// QEMU (hw/block/fdc.c): the port map (SRA/SRB/DOR/TDR/MSR/DSR/FIFO/DIR/
// CCR), the three-phase command protocol (command bytes through the FIFO,
// execution with DMA sector transfer, result bytes read back), and a
// representative command set.
//
// The model seeds CVE-2015-3456 ("Venom"): when an invalid command leaves
// the controller's expected transfer length at zero, subsequent FIFO
// writes keep incrementing data_pos without bound, walking writes past the
// 512-byte FIFO into the rest of the FDCtrl structure. Options.FixVenom
// applies the upstream fix (masking the FIFO index).
package fdc

import (
	"sedspec/internal/devices/devutil"
	"sedspec/internal/interp"
	"sedspec/internal/ir"
)

// Port offsets within the controller's window (attach at 0x3f0).
const (
	PortSRA  = 0 // status register A (read)
	PortSRB  = 1 // status register B (read)
	PortDOR  = 2 // digital output register
	PortTDR  = 3 // tape drive register
	PortMSR  = 4 // main status register (read) / data rate select (write)
	PortFIFO = 5 // data FIFO
	PortDIR  = 7 // digital input register (read) / config control (write)
	// PortDMALo and PortDMAHi program the sector-transfer guest address —
	// this window stands in for the ISA DMA controller the real board
	// routes floppy transfers through.
	PortDMALo = 8
	PortDMAHi = 9
	// PortCount is the port window size.
	PortCount = 10
)

// MSR bits.
const (
	MSRRQM  = 0x80 // request for master: FIFO ready
	MSRDIO  = 0x40 // data direction: set = controller to CPU (result phase)
	MSRBusy = 0x10 // command in progress
)

// Commands (first FIFO byte, masked with 0x5F to fold MT/MFM variants).
const (
	CmdSpecify     = 0x03
	CmdSenseDrive  = 0x04
	CmdRecalibrate = 0x07
	CmdSenseInt    = 0x08
	CmdDumpReg     = 0x0E // rare
	CmdSeek        = 0x0F
	CmdVersion     = 0x10
	CmdConfigure   = 0x13
	CmdWrite       = 0x45
	CmdRead        = 0x46
	CmdReadID      = 0x4A // rare
	CmdFormat      = 0x4D // rare
)

// FifoSize is the controller FIFO capacity (one sector).
const FifoSize = 512

// SectorSize is the transfer unit.
const SectorSize = 512

// Options configure seeded vulnerabilities.
type Options struct {
	// FixVenom applies the CVE-2015-3456 fix (FIFO index masking).
	FixVenom bool
}

// Device is the emulated floppy disk controller.
type Device struct {
	*devutil.Base
}

// programs holds one built program per Options variant.
var programs = devutil.NewPrograms(build)

// New returns a fresh controller at power-on values. Every instance of
// one Options variant runs the same shared program.
func New(opts Options) *Device {
	return &Device{Base: devutil.NewBase(programs.Get(opts), func(st *interp.State, p *ir.Program) {
		devutil.SetFunc(st, p, "irq_cb", "fdctrl_raise_irq")
		st.SetIntByName("msr", MSRRQM)
		st.SetIntByName("sra", 0x80) // interrupt pending mirrors elsewhere
		st.SetIntByName("srb", 0xC0)
	})}
}

func build(opts Options) *ir.Program {
	b := ir.NewBuilder("fdc")

	// FDCtrl control structure. The FIFO sits ahead of the transfer
	// bookkeeping and the IRQ callback, as in the C struct, so a Venom
	// overflow walks into them.
	fifo := b.Buf("fifo", FifoSize)
	dataPos := b.Int("data_pos", ir.W32)
	dataLen := b.Int("data_len", ir.W32)
	irqCb := b.Func("irq_cb")
	msr := b.Int("msr", ir.W8, ir.HWRegister())
	dor := b.Int("dor", ir.W8, ir.HWRegister())
	tdr := b.Int("tdr", ir.W8, ir.HWRegister())
	dsr := b.Int("dsr", ir.W8, ir.HWRegister())
	sra := b.Int("sra", ir.W8, ir.HWRegister())
	srb := b.Int("srb", ir.W8, ir.HWRegister())
	dirReg := b.Int("dir", ir.W8, ir.HWRegister())
	ccr := b.Int("ccr", ir.W8, ir.HWRegister())
	curCmd := b.Int("cur_cmd", ir.W8, ir.HWRegister())
	track := b.Int("track", ir.W8)
	head := b.Int("head", ir.W8)
	sector := b.Int("sector", ir.W8)
	status0 := b.Int("status0", ir.W8)
	dmaAddr := b.Int("dma_addr", ir.W32)
	_ = ccr

	// --- dispatch ---
	h := b.Handler("fdctrl_ioport")
	e := h.Block("entry").Entry()
	// Kernel-side tracepoint fired on every VM exit: its control flow is
	// what the ring filter exists to suppress (paper §IV-A).
	e.Call("kvm_trace_exit", "trace_kvm_exit()")
	isw := e.IOIsWrite("dir = req->write")
	onev := e.Const(1, "1")
	e.Branch(isw, ir.RelEQ, onev, ir.W8, false, "if (req->write)", "wr", "rd")

	// --- write side ---
	w := h.Block("wr")
	waddr := w.IOAddr("addr = req->addr")
	w.Switch(waddr, "switch (addr)", "out",
		ir.Case(PortDOR, "w_dor"),
		ir.Case(PortTDR, "w_tdr"),
		ir.Case(PortMSR, "w_dsr"),
		ir.Case(PortFIFO, "w_fifo"),
		ir.Case(PortDIR, "w_ccr"),
		ir.Case(PortDMALo, "w_dmalo"),
		ir.Case(PortDMAHi, "w_dmahi"),
	)

	wd := h.Block("w_dor")
	dv := wd.IOIn(ir.W8, "v = ioread8()")
	old := wd.Load(dor, "old = s->dor")
	wd.Store(dor, dv, "s->dor = v")
	rstBit := wd.Const(0x04, "DOR_NRESET")
	oldRst := wd.Arith(ir.ALUAnd, old, rstBit, ir.W8, false, "old & DOR_NRESET")
	newRst := wd.Arith(ir.ALUAnd, dv, rstBit, ir.W8, false, "v & DOR_NRESET")
	zero := wd.Const(0, "0")
	wd.Branch(oldRst, ir.RelEQ, zero, ir.W8, false, "if (!(old & DOR_NRESET))", "w_dor_chk", "out")
	wdc := h.Block("w_dor_chk")
	wdc.Branch(newRst, ir.RelNE, zero, ir.W8, false, "if (v & DOR_NRESET)", "w_dor_reset", "out")
	wdr := h.Block("w_dor_reset")
	wdr.Call("fdctrl_reset_fifo", "fdctrl_reset_fifo(s)")
	wdr.CallPtr(irqCb, "fdctrl_raise_irq(s)")
	wdr.Jump("out", "goto out")

	wt := h.Block("w_tdr")
	tv := wt.IOIn(ir.W8, "v = ioread8()")
	wt.Store(tdr, tv, "s->tdr = v")
	wt.Jump("out", "goto out")

	ws := h.Block("w_dsr")
	sv := ws.IOIn(ir.W8, "v = ioread8()")
	ws.Store(dsr, sv, "s->dsr = v")
	ws.Jump("out", "goto out")

	wc := h.Block("w_ccr")
	cv := wc.IOIn(ir.W8, "v = ioread8()")
	wc.Store(ccr, cv, "s->ccr = v")
	wc.Jump("out", "goto out")

	wl := h.Block("w_dmalo")
	lv := wl.IOIn(ir.W8, "v = ioread8()")
	wl.Store(dmaAddr, mixDMA(wl, dmaAddr, lv, false), "s->dma_addr = (s->dma_addr & 0xff00) | v")
	wl.Jump("out", "goto out")

	wh := h.Block("w_dmahi")
	hv := wh.IOIn(ir.W8, "v = ioread8()")
	wh.Store(dmaAddr, mixDMA(wh, dmaAddr, hv, true), "s->dma_addr = (s->dma_addr & 0xff) | (v<<8)")
	wh.Jump("out", "goto out")

	wf := h.Block("w_fifo")
	wf.Call("fdctrl_write_data", "fdctrl_write_data(s, v)")
	wf.Jump("out", "goto out")

	// --- read side ---
	r := h.Block("rd")
	raddr := r.IOAddr("addr = req->addr")
	r.Switch(raddr, "switch (addr)", "out",
		ir.Case(PortSRA, "r_sra"),
		ir.Case(PortSRB, "r_srb"),
		ir.Case(PortDOR, "r_dor"),
		ir.Case(PortTDR, "r_tdr"),
		ir.Case(PortMSR, "r_msr"),
		ir.Case(PortFIFO, "r_fifo"),
		ir.Case(PortDIR, "r_dir"),
	)
	emit8 := func(label string, f ir.FieldID, stmt string) {
		blk := h.Block(label)
		v := blk.Load(f, stmt)
		blk.IOOut(v, ir.W8, "iowrite8(v)")
		blk.Jump("out", "goto out")
	}
	emit8("r_sra", sra, "v = s->sra")
	emit8("r_srb", srb, "v = s->srb")
	emit8("r_dor", dor, "v = s->dor")
	emit8("r_tdr", tdr, "v = s->tdr")
	emit8("r_msr", msr, "v = s->msr")

	rdir := h.Block("r_dir")
	med := rdir.EnvRead(ir.EnvMedia, "present = blk_is_inserted(s->blk)")
	one := rdir.Const(1, "1")
	rdir.Branch(med, ir.RelEQ, one, ir.W8, false, "if (media_present)", "r_dir_in", "r_dir_chg")
	rdi := h.Block("r_dir_in")
	d0 := rdi.Const(0x00, "0")
	rdi.Store(dirReg, d0, "s->dir = 0")
	rdi.Jump("r_dir_out", "goto emit")
	rdg := h.Block("r_dir_chg")
	d80 := rdg.Const(0x80, "DIR_DSKCHG")
	rdg.Store(dirReg, d80, "s->dir = DIR_DSKCHG")
	rdg.Jump("r_dir_out", "goto emit")
	rdo := h.Block("r_dir_out")
	dvv := rdo.Load(dirReg, "v = s->dir")
	rdo.IOOut(dvv, ir.W8, "iowrite8(v)")
	rdo.Jump("out", "goto out")

	rf := h.Block("r_fifo")
	rf.Call("fdctrl_read_data", "v = fdctrl_read_data(s)")
	rf.Jump("out", "goto out")

	h.Block("out").Exit().Halt("return")

	buildWriteData(b, opts, fifo, dataPos, dataLen, msr, curCmd)
	buildReadData(b, fifo, dataPos, dataLen, msr, irqCb)
	buildExec(b, fifo, dataPos, dataLen, msr, curCmd, track, head, sector, status0, dmaAddr, irqCb, dor, tdr, dsr)
	buildHelpers(b, fifo, dataPos, dataLen, msr, status0)

	b.Dispatch("fdctrl_ioport")
	return devutil.MustBuild(b)
}

// mixDMA builds (field & keepMask) | (v [<<8]) for the DMA address halves.
func mixDMA(bb *ir.BlockBuilder, f ir.FieldID, v ir.Temp, high bool) ir.Temp {
	cur := bb.Load(f, "cur = s->dma_addr")
	if high {
		keep := bb.Const(0x00FF, "0x00ff")
		kept := bb.Arith(ir.ALUAnd, cur, keep, ir.W32, false, "cur & 0xff")
		sh := bb.Const(8, "8")
		vs := bb.Arith(ir.ALUShl, v, sh, ir.W32, false, "v << 8")
		return bb.Arith(ir.ALUOr, kept, vs, ir.W32, false, "(cur & 0xff) | (v << 8)")
	}
	keep := bb.Const(0xFF00, "0xff00")
	kept := bb.Arith(ir.ALUAnd, cur, keep, ir.W32, false, "cur & 0xff00")
	return bb.Arith(ir.ALUOr, kept, v, ir.W32, false, "(cur & 0xff00) | v")
}
