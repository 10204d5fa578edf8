// Package scsi models a 53C9X (ESP)-style SCSI controller with a disk
// behind it, as emulated by QEMU (hw/scsi/esp.c + the SCSI bus): the TI
// FIFO and transfer-count registers, ESP commands, CDB parsing, and
// block transfers.
//
// Two QEMU CVEs are seeded:
//
//   - CVE-2016-4439: FIFO writes store at ti_buf[ti_wptr++] with no
//     capacity check, so the write pointer walks out of the 16-byte FIFO
//     into the rest of the structure.
//   - CVE-2015-5158: the DMA-select path copies a command block whose
//     length comes from the transfer header in guest memory — a temporary
//     unrelated to any device-state parameter — into the fixed 32-byte
//     cmdbuf, overflowing it for lengths above 32.
//
// Both corruptions steer later control flow into paths never seen in
// training (unknown SCSI opcodes, impossible phases), which is how the
// conditional-jump check catches them — matching the paper's Table III.
package scsi

import (
	"sedspec/internal/devices/devutil"
	"sedspec/internal/interp"
	"sedspec/internal/ir"
)

// Port offsets.
const (
	PortTCLo   = 0 // transfer count low
	PortTCMid  = 1 // transfer count mid
	PortFIFO   = 2 // TI FIFO
	PortCmd    = 3 // ESP command
	PortStatus = 4 // status (read) / destination id (write)
	PortIntr   = 5 // interrupt status (read clears)
	PortSeq    = 6 // sequence step
	PortDMALo  = 7 // DMA address low byte
	PortDMAMid = 8 // DMA address mid byte
	PortDMAHi  = 9 // DMA address high byte
	// PortCount is the port window size.
	PortCount = 10
)

// ESP commands.
const (
	ESPNop      = 0x00
	ESPFlush    = 0x01
	ESPReset    = 0x02
	ESPXferInfo = 0x10
	ESPSetATN   = 0x1A // rare
	ESPMsgAcc   = 0x12
	ESPSelATN   = 0x42
	ESPSelNATN  = 0x44 // rare
	ESPDMASel   = 0x90
)

// SCSI opcodes dispatched from the CDB.
const (
	ScsiTestUnitReady = 0x00
	ScsiRequestSense  = 0x03
	ScsiInquiry       = 0x12
	ScsiModeSense     = 0x1A
	ScsiReadCapacity  = 0x25
	ScsiRead10        = 0x28
	ScsiWrite10       = 0x2A
	ScsiReportLuns    = 0xA0
)

// Buffer capacities.
const (
	TIBufSize  = 16
	CmdBufSize = 32
	BlockSize  = 512
)

// Options configure the seeded vulnerabilities.
type Options struct {
	// Fix4439 bounds FIFO writes at the TI buffer capacity.
	Fix4439 bool
	// Fix5158 bounds the DMA-select command block length at cmdbuf size.
	Fix5158 bool
}

// Device is the emulated SCSI controller.
type Device struct {
	*devutil.Base
}

// programs holds one built program per Options variant.
var programs = devutil.NewPrograms(build)

// New returns a fresh controller at power-on values. Every instance of
// one Options variant runs the same shared program.
func New(opts Options) *Device {
	return &Device{Base: devutil.NewBase(programs.Get(opts), func(st *interp.State, p *ir.Program) {
		devutil.SetFunc(st, p, "irq_cb", "esp_raise_irq")
	})}
}

func build(opts Options) *ir.Program {
	b := ir.NewBuilder("scsi")

	tiBuf := b.Buf("ti_buf", TIBufSize)
	tiWptr := b.Int("ti_wptr", ir.W8)
	tiRptr := b.Int("ti_rptr", ir.W8)
	cmdBuf := b.Buf("cmdbuf", CmdBufSize)
	phase := b.Int("phase", ir.W8)
	sense := b.Int("sense", ir.W8)
	status := b.Int("status", ir.W8, ir.HWRegister())
	intr := b.Int("intr", ir.W8, ir.HWRegister())
	seq := b.Int("seq", ir.W8, ir.HWRegister())
	tclo := b.Int("tclo", ir.W8, ir.HWRegister())
	tcmid := b.Int("tcmid", ir.W8, ir.HWRegister())
	destID := b.Int("dest_id", ir.W8)
	copyI := b.Int("copy_i", ir.W8)
	lba := b.Int("lba", ir.W32)
	xferBlocks := b.Int("xfer_blocks", ir.W16)
	dmaAddr := b.Int("dma_addr", ir.W32)
	dataBuf := b.Buf("databuf", BlockSize)
	irqCb := b.Func("irq_cb")

	buildDispatch(b, opts, tiBuf, tiWptr, tiRptr, status, intr, seq, tclo, tcmid, destID, dmaAddr)
	buildESPCommands(b, opts, tiBuf, tiWptr, tiRptr, cmdBuf, phase, sense, status, intr, seq, copyI, dmaAddr, irqCb)
	buildSCSICommands(b, tiBuf, tiWptr, tiRptr, cmdBuf, phase, sense, status, intr, copyI, lba, xferBlocks, dmaAddr, dataBuf, irqCb)

	irq := b.Handler("esp_raise_irq")
	e := irq.Block("entry")
	e.IRQRaise("qemu_irq_raise(s->irq)")
	e.Return("return")

	g := b.Handler("host_gadget")
	gb := g.Block("entry")
	pw := gb.Const(0xEE, "0xee")
	gb.Store(status, pw, "/* attacker-controlled execution */")
	gb.Return("return")

	b.Dispatch("esp_ioport")
	return devutil.MustBuild(b)
}

func buildDispatch(b *ir.Builder, opts Options, tiBuf, tiWptr, tiRptr, status, intr, seq, tclo, tcmid, destID, dmaAddr ir.FieldID) {
	h := b.Handler("esp_ioport")
	e := h.Block("entry").Entry()
	isw := e.IOIsWrite("dir = req->write")
	one := e.Const(1, "1")
	e.Branch(isw, ir.RelEQ, one, ir.W8, false, "if (req->write)", "wr", "rd")

	w := h.Block("wr")
	waddr := w.IOAddr("addr = req->addr")
	w.Switch(waddr, "switch (saddr)", "out",
		ir.Case(PortTCLo, "w_tclo"),
		ir.Case(PortTCMid, "w_tcmid"),
		ir.Case(PortFIFO, "w_fifo"),
		ir.Case(PortCmd, "w_cmd"),
		ir.Case(PortStatus, "w_dest"),
		ir.Case(PortDMALo, "w_dmalo"),
		ir.Case(PortDMAMid, "w_dmamid"),
		ir.Case(PortDMAHi, "w_dmahi"),
	)

	store8 := func(label string, f ir.FieldID, stmt string) {
		blk := h.Block(label)
		v := blk.IOIn(ir.W8, "v = val")
		blk.Store(f, v, stmt)
		blk.Jump("out", "goto out")
	}
	store8("w_tclo", tclo, "s->tclo = v")
	store8("w_tcmid", tcmid, "s->tcmid = v")
	store8("w_dest", destID, "s->dest_id = v")

	// DMA address bytes assemble a 24-bit address.
	dmaByte := func(label string, shift uint64) {
		blk := h.Block(label)
		v := blk.IOIn(ir.W8, "v = val")
		cur := blk.Load(dmaAddr, "a = s->dma_addr")
		keep := blk.Const(^(uint64(0xFF)<<shift)&0xFFFF_FFFF, "mask")
		kept := blk.Arith(ir.ALUAnd, cur, keep, ir.W32, false, "a & ~mask")
		sh := blk.Const(shift, "shift")
		vs := blk.Arith(ir.ALUShl, v, sh, ir.W32, false, "v << shift")
		nv := blk.Arith(ir.ALUOr, kept, vs, ir.W32, false, "a | (v << shift)")
		blk.Store(dmaAddr, nv, "s->dma_addr = a")
		blk.Jump("out", "goto out")
	}
	dmaByte("w_dmalo", 0)
	dmaByte("w_dmamid", 8)
	dmaByte("w_dmahi", 16)

	// FIFO write: the CVE-2016-4439 site.
	wf := h.Block("w_fifo")
	v := wf.IOIn(ir.W8, "v = val")
	wp := wf.Load(tiWptr, "w = s->ti_wptr")
	if opts.Fix4439 {
		lim := wf.Const(TIBufSize, "TI_BUFSZ")
		wf.Branch(wp, ir.RelGE, lim, ir.W8, false,
			"if (s->ti_wptr >= TI_BUFSZ) /* CVE-2016-4439 fix */", "w_fifo_full", "w_fifo_store")
		h.Block("w_fifo_full").Jump("out", "goto out /* dropped */")
		fs := h.Block("w_fifo_store")
		v2 := fs.IOIn(ir.W8, "v") // re-read not needed; keep temp chain simple
		_ = v2
		wp2 := fs.Load(tiWptr, "w")
		fs.BufStore(tiBuf, wp2, v, ir.W8, false, "s->ti_buf[s->ti_wptr] = v")
		one2 := fs.Const(1, "1")
		wn := fs.Arith(ir.ALUAdd, wp2, one2, ir.W8, false, "w + 1")
		fs.Store(tiWptr, wn, "s->ti_wptr++")
		fs.Jump("out", "goto out")
	} else {
		wf.BufStore(tiBuf, wp, v, ir.W8, false, "s->ti_buf[s->ti_wptr] = v /* no bound: CVE-2016-4439 */")
		one2 := wf.Const(1, "1")
		wn := wf.Arith(ir.ALUAdd, wp, one2, ir.W8, false, "w + 1")
		wf.Store(tiWptr, wn, "s->ti_wptr++")
		wf.Jump("out", "goto out")
	}

	wc := h.Block("w_cmd")
	wc.Call("esp_do_command", "esp_reg_write(s, ESP_CMD, v)")
	wc.Jump("out", "goto out")

	// Reads.
	r := h.Block("rd")
	raddr := r.IOAddr("addr = req->addr")
	r.Switch(raddr, "switch (saddr)", "out",
		ir.Case(PortFIFO, "r_fifo"),
		ir.Case(PortStatus, "r_status"),
		ir.Case(PortIntr, "r_intr"),
		ir.Case(PortSeq, "r_seq"),
		ir.Case(PortTCLo, "r_tclo"),
		ir.Case(PortTCMid, "r_tcmid"),
	)
	emit := func(label string, f ir.FieldID, stmt string) {
		blk := h.Block(label)
		vv := blk.Load(f, stmt)
		blk.IOOut(vv, ir.W8, "return v")
		blk.Jump("out", "goto out")
	}
	emit("r_status", status, "v = s->status")
	emit("r_seq", seq, "v = s->seq")
	emit("r_tclo", tclo, "v = s->tclo")
	emit("r_tcmid", tcmid, "v = s->tcmid")

	// Reading INTR clears it and lowers the line.
	ri := h.Block("r_intr")
	iv := ri.Load(intr, "v = s->intr")
	ri.IOOut(iv, ir.W8, "return v")
	z := ri.Const(0, "0")
	ri.Store(intr, z, "s->intr = 0")
	ri.IRQLower("qemu_irq_lower(s->irq)")
	ri.Jump("out", "goto out")

	// FIFO read: bounded by the read/write pointers.
	rf := h.Block("r_fifo")
	rp := rf.Load(tiRptr, "r = s->ti_rptr")
	wpp := rf.Load(tiWptr, "w = s->ti_wptr")
	rf.Branch(rp, ir.RelGE, wpp, ir.W8, false, "if (r >= w)", "r_fifo_empty", "r_fifo_pop")
	fe := h.Block("r_fifo_empty")
	zv := fe.Const(0, "0")
	fe.IOOut(zv, ir.W8, "return 0")
	fe.Jump("out", "goto out")
	fp := h.Block("r_fifo_pop")
	rp2 := fp.Load(tiRptr, "r")
	pv := fp.BufLoad(tiBuf, rp2, ir.W8, false, "v = s->ti_buf[r]")
	fp.IOOut(pv, ir.W8, "return v")
	one3 := fp.Const(1, "1")
	rn := fp.Arith(ir.ALUAdd, rp2, one3, ir.W8, false, "r + 1")
	fp.Store(tiRptr, rn, "s->ti_rptr++")
	fp.Jump("out", "goto out")

	h.Block("out").Exit().Halt("return")
}
