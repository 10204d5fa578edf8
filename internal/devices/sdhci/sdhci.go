// Package sdhci models an SD Host Controller Interface as emulated by QEMU
// (hw/sd/sdhci.c with the sd.c card model behind it): the MMIO register
// file, the SD command set dispatched through the CMD register, and
// SDMA-style multi-block transfers that pause at buffer boundaries and are
// resumed by the guest acknowledging the DMA-interrupt status.
//
// The model seeds CVE-2021-3409: the BLKSIZE register remains writable
// while a transfer is in flight, so shrinking it below the current
// intra-block offset makes the "remaining bytes" expression
// (blksize - data_count) underflow, driving the transfer engine out of the
// FIFO buffer. Options.Fix3409 applies the upstream fix (the register is
// locked during an active transfer).
package sdhci

import (
	"sedspec/internal/devices/devutil"
	"sedspec/internal/interp"
	"sedspec/internal/ir"
)

// MMIO register offsets (within the controller's window).
const (
	RegSDMA      = 0x00 // SDMA system address (u32)
	RegBlkSize   = 0x04 // block size (u16)
	RegBlkCnt    = 0x06 // block count (u16)
	RegArg       = 0x08 // command argument (u32)
	RegCmd       = 0x0E // command register (u16)
	RegResp0     = 0x10 // response (u32)
	RegPrnSts    = 0x24 // present state (u16)
	RegNorIntSts = 0x30 // normal interrupt status (u16); writing the DMA
	// bit acknowledges a boundary pause and resumes the transfer.
	// RegionSize is the MMIO window size.
	RegionSize = 0x60
)

// Present-state bits.
const (
	PrnTransferActive = 0x0100
)

// Interrupt-status bits.
const (
	IntCmdComplete  = 0x0001
	IntXferComplete = 0x0002
	IntDMABoundary  = 0x0008
)

// SD commands (CMD register value >> 8, as the index field).
const (
	CmdGoIdle      = 0
	CmdAllSendCID  = 2
	CmdSendRelAddr = 3
	CmdSelectCard  = 7
	CmdSendIfCond  = 8
	CmdSendCSD     = 9
	CmdSendStatus  = 13
	CmdSetBlockLen = 16
	CmdReadSingle  = 17
	CmdReadMulti   = 18
	CmdWriteSingle = 24
	CmdWriteMulti  = 25
	CmdGenCmd      = 56 // rare
)

// BlockBufSize is the controller's internal block buffer.
const BlockBufSize = 512

// chunkSize is how many bytes one SDMA burst moves before the engine
// re-evaluates the remaining count (the boundary granularity).
const chunkSize = 128

// Options configure the seeded vulnerability.
type Options struct {
	// Fix3409 locks BLKSIZE while a transfer is active (CVE-2021-3409
	// fix).
	Fix3409 bool
}

// Device is the emulated SD host controller.
type Device struct {
	*devutil.Base
}

// programs holds one built program per Options variant.
var programs = devutil.NewPrograms(build)

// New returns a fresh controller at power-on values. Every instance of
// one Options variant runs the same shared program.
func New(opts Options) *Device {
	return &Device{Base: devutil.NewBase(programs.Get(opts), func(st *interp.State, p *ir.Program) {
		devutil.SetFunc(st, p, "irq_cb", "sdhci_irq")
		st.SetIntByName("blksize", 512)
	})}
}

func build(opts Options) *ir.Program {
	b := ir.NewBuilder("sdhci")

	fifo := b.Buf("fifo_buffer", BlockBufSize)
	dataCount := b.Int("data_count", ir.W16)
	spaceLeft := b.Int("space_left", ir.W16)
	irqCb := b.Func("irq_cb")
	blksize := b.Int("blksize", ir.W16, ir.HWRegister())
	blkcnt := b.Int("blkcnt", ir.W16, ir.HWRegister())
	arg := b.Int("arg", ir.W32, ir.HWRegister())
	cmdReg := b.Int("cmd_reg", ir.W16, ir.HWRegister())
	resp0 := b.Int("resp0", ir.W32, ir.HWRegister())
	prnsts := b.Int("prnsts", ir.W16, ir.HWRegister())
	norintsts := b.Int("norintsts", ir.W16, ir.HWRegister())
	sdma := b.Int("sdmasysad", ir.W32, ir.HWRegister())
	rca := b.Int("rca", ir.W16)
	selected := b.Int("selected", ir.W8)
	blocklen := b.Int("blocklen", ir.W16)
	xferWrite := b.Int("xfer_write", ir.W8) // direction of active transfer

	buildMMIO(b, opts, fifo, dataCount, spaceLeft, irqCb, blksize, blkcnt,
		arg, cmdReg, resp0, prnsts, norintsts, sdma, rca, selected, blocklen, xferWrite)
	buildCommands(b, fifo, dataCount, irqCb, blksize, blkcnt, arg, cmdReg,
		resp0, prnsts, norintsts, sdma, rca, selected, blocklen, xferWrite)
	buildTransferEngine(b, fifo, dataCount, spaceLeft, irqCb, blksize,
		blkcnt, prnsts, norintsts, sdma, xferWrite)

	irq := b.Handler("sdhci_irq")
	ib := irq.Block("entry")
	ib.IRQRaise("qemu_set_irq(s->irq, 1)")
	ib.Return("return")

	g := b.Handler("host_gadget")
	gb := g.Block("entry")
	pw := gb.Const(0xFFFF, "0xffff")
	gb.Store(resp0, pw, "/* attacker-controlled execution */")
	gb.Return("return")

	b.Dispatch("sdhci_mmio")
	return devutil.MustBuild(b)
}

func buildMMIO(b *ir.Builder, opts Options, fifo, dataCount, spaceLeft, irqCb, blksize, blkcnt,
	arg, cmdReg, resp0, prnsts, norintsts, sdma, rca, selected, blocklen, xferWrite ir.FieldID) {
	_ = fifo
	_ = dataCount
	_ = spaceLeft
	_ = rca
	_ = selected
	_ = blocklen
	_ = xferWrite

	h := b.Handler("sdhci_mmio")
	e := h.Block("entry").Entry()
	isw := e.IOIsWrite("dir = req->write")
	one := e.Const(1, "1")
	e.Branch(isw, ir.RelEQ, one, ir.W8, false, "if (req->write)", "wr", "rd")

	w := h.Block("wr")
	waddr := w.IOAddr("addr = req->addr")
	w.Switch(waddr, "switch (addr)", "out",
		ir.Case(RegSDMA, "w_sdma"),
		ir.Case(RegBlkSize, "w_blksize"),
		ir.Case(RegBlkCnt, "w_blkcnt"),
		ir.Case(RegArg, "w_arg"),
		ir.Case(RegCmd, "w_cmd"),
		ir.Case(RegNorIntSts, "w_ints"),
	)

	ws := h.Block("w_sdma")
	sv := ws.IOIn(ir.W32, "v = ldl(val)")
	ws.Store(sdma, sv, "s->sdmasysad = v")
	ws.Jump("out", "goto out")

	wb := h.Block("w_blksize")
	bv := wb.IOIn(ir.W16, "v = lduw(val)")
	if opts.Fix3409 {
		// Upstream fix: the register is read-only while a transfer is in
		// flight.
		ps := wb.Load(prnsts, "p = s->prnsts")
		act := wb.Const(PrnTransferActive, "TRANSFER_ACTIVE")
		ab := wb.Arith(ir.ALUAnd, ps, act, ir.W16, false, "p & TRANSFER_ACTIVE")
		z := wb.Const(0, "0")
		wb.Branch(ab, ir.RelNE, z, ir.W16, false,
			"if (TRANSFERRING_DATA(s)) /* CVE-2021-3409 fix */", "w_blksize_locked", "w_blksize_set")
		h.Block("w_blksize_locked").Jump("out", "goto out /* locked */")
		st := h.Block("w_blksize_set")
		st.Store(blksize, bv, "s->blksize = v")
		st.Jump("out", "goto out")
	} else {
		wb.Store(blksize, bv, "s->blksize = v /* writable mid-transfer: CVE-2021-3409 */")
		wb.Jump("out", "goto out")
	}

	wc := h.Block("w_blkcnt")
	cv := wc.IOIn(ir.W16, "v = lduw(val)")
	wc.Store(blkcnt, cv, "s->blkcnt = v")
	wc.Jump("out", "goto out")

	wa := h.Block("w_arg")
	av := wa.IOIn(ir.W32, "v = ldl(val)")
	wa.Store(arg, av, "s->argument = v")
	wa.Jump("out", "goto out")

	wm := h.Block("w_cmd")
	wm.Call("sdhci_send_command", "sdhci_send_command(s)")
	wm.Jump("out", "goto out")

	wi := h.Block("w_ints")
	iv := wi.IOIn(ir.W16, "v = lduw(val)")
	cur := wi.Load(norintsts, "c = s->norintsts")
	inv := wi.Const(0xFFFF, "0xffff")
	niv := wi.Arith(ir.ALUXor, iv, inv, ir.W16, false, "~v")
	c2 := wi.Arith(ir.ALUAnd, cur, niv, ir.W16, false, "c & ~v")
	wi.Store(norintsts, c2, "s->norintsts &= ~v /* write-1-to-clear */")
	dma := wi.Const(IntDMABoundary, "INT_DMA")
	db := wi.Arith(ir.ALUAnd, iv, dma, ir.W16, false, "v & INT_DMA")
	z2 := wi.Const(0, "0")
	wi.Branch(db, ir.RelNE, z2, ir.W16, false, "if (v & INT_DMA)", "w_resume", "out")
	wres := h.Block("w_resume")
	wres.Call("sdhci_sdma_transfer", "sdhci_sdma_transfer_multi_blocks(s)")
	wres.Jump("out", "goto out")

	r := h.Block("rd")
	raddr := r.IOAddr("addr = req->addr")
	r.Switch(raddr, "switch (addr)", "r_zero",
		ir.Case(RegBlkSize, "r_blksize"),
		ir.Case(RegBlkCnt, "r_blkcnt"),
		ir.Case(RegResp0, "r_resp0"),
		ir.Case(RegPrnSts, "r_prnsts"),
		ir.Case(RegNorIntSts, "r_ints"),
	)
	emit := func(label string, f ir.FieldID, w ir.Width, stmt string) {
		blk := h.Block(label)
		v := blk.Load(f, stmt)
		blk.IOOut(v, w, "return v")
		blk.Jump("out", "goto out")
	}
	emit("r_blksize", blksize, ir.W16, "v = s->blksize")
	emit("r_blkcnt", blkcnt, ir.W16, "v = s->blkcnt")
	emit("r_resp0", resp0, ir.W32, "v = s->resp0")
	emit("r_prnsts", prnsts, ir.W16, "v = s->prnsts")
	emit("r_ints", norintsts, ir.W16, "v = s->norintsts")
	rz := h.Block("r_zero")
	zv := rz.Const(0, "0")
	rz.IOOut(zv, ir.W32, "return 0")
	rz.Jump("out", "goto out")

	h.Block("out").Exit().Halt("return")
	_ = irqCb
	_ = cmdReg
}
