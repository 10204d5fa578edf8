// Package ehci models a USB EHCI host controller with an attached USB
// device, as emulated by QEMU (hw/usb/hcd-ehci.c with the usb core's
// USBDevice behind it): the operational register file, asynchronous
// schedule processing over guest qTDs, and the control-transfer state
// machine (SETUP / data / status stages).
//
// Two QEMU CVEs are seeded:
//
//   - CVE-2020-14364: the SETUP stage latches wLength into setup_len with
//     no bound against the 4096-byte data_buf, so OUT data stages indexed
//     by setup_index write past the buffer (first out-of-bounds instance,
//     reaching setup_index itself); overwriting setup_index with a
//     negative value makes the next write land *before* the buffer, on the
//     device's interrupt callback pointer (second instance). Fix14364
//     applies the upstream bound.
//   - CVE-2016-1568: the async-schedule doorbell is supposed to clear the
//     controller's cached qTD pointer when the guest unlinks the chain,
//     but the unpatched code misses that re-initialization; a later
//     schedule resume dereferences the stale pointer into memory the guest
//     has repurposed — a use-after-free. Every branch of that flow is also
//     taken by benign traffic, which is exactly why SEDSpec misses it (the
//     paper's reported false negative). Fix1568 adds the clear.
package ehci

import (
	"sedspec/internal/devices/devutil"
	"sedspec/internal/interp"
	"sedspec/internal/ir"
)

// MMIO register offsets.
const (
	RegUSBCmd    = 0x00
	RegUSBSts    = 0x04
	RegUSBIntr   = 0x08
	RegFrIndex   = 0x0C
	RegAsyncList = 0x18
	RegConfig    = 0x40
	RegPortSC    = 0x44
	// RegionSize is the MMIO window size.
	RegionSize = 0x60
)

// USBCMD bits.
const (
	CmdRun      = 0x0001
	CmdDoorbell = 0x0040
)

// USBSTS bits.
const (
	StsInt      = 0x0001
	StsErr      = 0x0002
	StsDoorbell = 0x0020
)

// qTD layout in guest memory (16 bytes).
const (
	TDToken  = 0  // pid | ioc<<8 | length<<16
	TDBuffer = 4  // data buffer guest address
	TDNext   = 8  // next qTD address (0 terminates)
	TDStatus = 12 // status writeback
)

// Token PIDs.
const (
	PidOut   = 0
	PidIn    = 1
	PidSetup = 2
)

// TokenIOC requests an interrupt on completion.
const TokenIOC = 0x100

// Standard USB requests (the device's command space).
const (
	ReqGetStatus     = 0
	ReqClearFeature  = 1
	ReqSetFeature    = 3
	ReqSetAddress    = 5
	ReqGetDescriptor = 6
	ReqSetDescriptor = 7 // rare
	ReqGetConfig     = 8
	ReqSetConfig     = 9
	ReqGetInterface  = 10
	ReqSetInterface  = 11
	ReqSynchFrame    = 12 // rare
)

// DataBufSize is the USBDevice control-transfer buffer capacity.
const DataBufSize = 4096

// tdBudget bounds qTDs processed per doorbell, like the real controller's
// microframe budget.
const tdBudget = 16

// Options configure the seeded vulnerabilities.
type Options struct {
	// Fix14364 bounds setup_len at the data buffer size.
	Fix14364 bool
	// Fix1568 clears the cached qTD pointer on unlink.
	Fix1568 bool
}

// Device is the emulated host controller plus USB device.
type Device struct {
	*devutil.Base
}

// programs holds one built program per Options variant.
var programs = devutil.NewPrograms(build)

// New returns a fresh controller at power-on values. Every instance of
// one Options variant runs the same shared program.
func New(opts Options) *Device {
	return &Device{Base: devutil.NewBase(programs.Get(opts), func(st *interp.State, p *ir.Program) {
		devutil.SetFunc(st, p, "irq_cb", "ehci_raise_irq")
	})}
}

func build(opts Options) *ir.Program {
	b := ir.NewBuilder("ehci")

	// USBDevice-side control structure. The callback pointer sits in
	// front of setup_buf so a negative setup_index reaches it, and
	// setup_index sits right after data_buf so a positive overflow
	// reaches it — the two out-of-bounds instances of CVE-2020-14364.
	irqCb := b.Func("irq_cb")
	setupBuf := b.Buf("setup_buf", 8)
	setupLen := b.Int("setup_len", ir.W32, ir.Signed())
	dataBuf := b.Buf("data_buf", DataBufSize)
	setupIndex := b.Int("setup_index", ir.W32, ir.Signed())

	usbcmd := b.Int("usbcmd", ir.W32, ir.HWRegister())
	usbsts := b.Int("usbsts", ir.W32, ir.HWRegister())
	usbintr := b.Int("usbintr", ir.W32, ir.HWRegister())
	frindex := b.Int("frindex", ir.W32, ir.HWRegister())
	asyncList := b.Int("asynclistaddr", ir.W32, ir.HWRegister())
	portsc := b.Int("portsc", ir.W32, ir.HWRegister())
	devAddr := b.Int("dev_addr", ir.W8)
	config := b.Int("config", ir.W8)
	// asyncTD caches the qTD being processed — the CVE-2016-1568 stale
	// pointer.
	asyncTD := b.Int("async_td", ir.W32)
	tdCount := b.Int("td_count", ir.W8)

	buildMMIO(b, opts, usbcmd, usbsts, usbintr, frindex, asyncList, portsc, asyncTD)
	buildSchedule(b, opts, irqCb, setupBuf, setupLen, dataBuf, setupIndex,
		usbsts, asyncList, asyncTD, tdCount, devAddr, config)

	irq := b.Handler("ehci_raise_irq")
	e := irq.Block("entry")
	e.IRQRaise("qemu_set_irq(s->irq, 1)")
	e.Return("return")

	g := b.Handler("host_gadget")
	gb := g.Block("entry")
	pw := gb.Const(0xBAD, "0xbad")
	gb.Store(frindex, pw, "/* attacker-controlled execution */")
	gb.Return("return")

	b.Dispatch("ehci_mmio")
	return devutil.MustBuild(b)
}

func buildMMIO(b *ir.Builder, opts Options, usbcmd, usbsts, usbintr, frindex, asyncList, portsc, asyncTD ir.FieldID) {
	h := b.Handler("ehci_mmio")
	e := h.Block("entry").Entry()
	isw := e.IOIsWrite("dir = req->write")
	one := e.Const(1, "1")
	e.Branch(isw, ir.RelEQ, one, ir.W8, false, "if (req->write)", "wr", "rd")

	w := h.Block("wr")
	waddr := w.IOAddr("addr = req->addr")
	w.Switch(waddr, "switch (addr)", "out",
		ir.Case(RegUSBCmd, "w_cmd"),
		ir.Case(RegUSBSts, "w_sts"),
		ir.Case(RegUSBIntr, "w_intr"),
		ir.Case(RegAsyncList, "w_async"),
		ir.Case(RegPortSC, "w_portsc"),
	)

	wc := h.Block("w_cmd")
	v := wc.IOIn(ir.W32, "v = ldl(val)")
	wc.Store(usbcmd, v, "s->usbcmd = v")
	db := wc.Const(CmdDoorbell, "USBCMD_DOORBELL")
	dbb := wc.Arith(ir.ALUAnd, v, db, ir.W32, false, "v & DOORBELL")
	z := wc.Const(0, "0")
	wc.Branch(dbb, ir.RelNE, z, ir.W32, false, "if (v & DOORBELL)", "w_doorbell", "w_run")

	dbell := h.Block("w_doorbell")
	cur := dbell.Load(usbsts, "s->usbsts")
	dbit := dbell.Const(StsDoorbell, "STS_DOORBELL")
	c2 := dbell.Arith(ir.ALUOr, cur, dbit, ir.W32, false, "sts | DOORBELL")
	dbell.Store(usbsts, c2, "s->usbsts |= DOORBELL")
	if opts.Fix1568 {
		zz := dbell.Const(0, "0")
		dbell.Store(asyncTD, zz, "s->async_td = 0 /* CVE-2016-1568 fix: drop cached qTD */")
	}
	// The unpatched code forgets to invalidate the cached qTD here.
	dbell.Jump("w_run", "fallthrough")

	run := h.Block("w_run")
	rb := run.Const(CmdRun, "USBCMD_RUN")
	rbb := run.Arith(ir.ALUAnd, v, rb, ir.W32, false, "v & RUN")
	z2 := run.Const(0, "0")
	run.Branch(rbb, ir.RelNE, z2, ir.W32, false, "if (v & RUN)", "w_sched", "out")
	sch := h.Block("w_sched")
	sch.Call("ehci_advance_async", "ehci_advance_async_state(s)")
	sch.Jump("out", "goto out")

	ws := h.Block("w_sts")
	sv := ws.IOIn(ir.W32, "v = ldl(val)")
	curs := ws.Load(usbsts, "c = s->usbsts")
	inv := ws.Const(0xFFFF_FFFF, "~0")
	nv := ws.Arith(ir.ALUXor, sv, inv, ir.W32, false, "~v")
	c3 := ws.Arith(ir.ALUAnd, curs, nv, ir.W32, false, "c & ~v")
	ws.Store(usbsts, c3, "s->usbsts &= ~v /* write-1-to-clear */")
	ws.Jump("out", "goto out")

	store32 := func(label string, f ir.FieldID, stmt string) {
		blk := h.Block(label)
		vv := blk.IOIn(ir.W32, "v = ldl(val)")
		blk.Store(f, vv, stmt)
		blk.Jump("out", "goto out")
	}
	store32("w_intr", usbintr, "s->usbintr = v")
	store32("w_async", asyncList, "s->asynclistaddr = v")
	store32("w_portsc", portsc, "s->portsc = v")

	r := h.Block("rd")
	raddr := r.IOAddr("addr = req->addr")
	r.Switch(raddr, "switch (addr)", "r_zero",
		ir.Case(RegUSBCmd, "r_cmd"),
		ir.Case(RegUSBSts, "r_sts"),
		ir.Case(RegFrIndex, "r_fr"),
		ir.Case(RegAsyncList, "r_async"),
		ir.Case(RegPortSC, "r_portsc"),
	)
	emit := func(label string, f ir.FieldID, stmt string) {
		blk := h.Block(label)
		vv := blk.Load(f, stmt)
		blk.IOOut(vv, ir.W32, "return v")
		blk.Jump("out", "goto out")
	}
	emit("r_cmd", usbcmd, "v = s->usbcmd")
	emit("r_sts", usbsts, "v = s->usbsts")
	emit("r_fr", frindex, "v = s->frindex")
	emit("r_async", asyncList, "v = s->asynclistaddr")
	emit("r_portsc", portsc, "v = s->portsc")
	rz := h.Block("r_zero")
	zv := rz.Const(0, "0")
	rz.IOOut(zv, ir.W32, "return 0")
	rz.Jump("out", "goto out")

	h.Block("out").Exit().Halt("return")
}
