// Package pcnet models the AMD PCnet-PCI II (Am79C970A) network adapter
// as emulated by QEMU (hw/net/pcnet.c): the RAP/RDP register access
// protocol, initialization block DMA, descriptor-ring transmit and
// receive, loopback, and interrupt delivery.
//
// Three QEMU CVEs are seeded:
//
//   - CVE-2015-7504: the receive path appends a 4-byte CRC after the frame
//     in the adapter's frame buffer using a size value taken from the
//     frame itself (a temporary, not a device-state parameter). A
//     4096-byte frame lands the CRC on the adjacent irq callback pointer.
//   - CVE-2015-7512: the loopback transmit path accumulates descriptor
//     chunks at xmit_pos with no capacity check, so xmit_pos can exceed
//     4092 and the frame-buffer write goes out of bounds.
//   - CVE-2016-7909: receive-ring scanning decrements a ring-length
//     counter that underflows when the guest programs RCVRL = 0, spinning
//     the emulation for ~2^32 iterations (a denial of service).
//
// Options.Fix7504/Fix7512/Fix7909 apply the upstream fixes.
package pcnet

import (
	"sedspec/internal/devices/devutil"
	"sedspec/internal/interp"
	"sedspec/internal/ir"
)

// Port offsets within the adapter's window.
const (
	PortAPROM = 0x00 // 16 bytes of station address PROM
	PortRDP   = 0x10 // register data port (CSR access)
	PortRAP   = 0x12 // register address port
	PortReset = 0x14 // soft reset on read
	PortBDP   = 0x16 // bus configuration data port (BCR access)
	// PortWire is where the network backend hands received frames to the
	// adapter — the stand-in for QEMU's net backend callback.
	PortWire = 0x18
	// PortCount is the port window size.
	PortCount = 0x20
)

// CSR0 bits.
const (
	CSR0Init = 0x0001
	CSR0Strt = 0x0002
	CSR0Stop = 0x0004
	CSR0TDMD = 0x0008
	CSR0TXON = 0x0010
	CSR0RXON = 0x0020
	CSR0IENA = 0x0040
	CSR0INTR = 0x0080
	CSR0IDON = 0x0100
	CSR0TINT = 0x0200
	CSR0RINT = 0x0400
)

// Mode bits (CSR15).
const (
	ModeLoop = 0x0004 // internal loopback
)

// Descriptor layout (16 bytes in guest memory).
const (
	DescAddr  = 0  // buffer guest address (u32)
	DescFlags = 4  // OWN/ENP flags (u32)
	DescLen   = 8  // buffer length (u32)
	DescStat  = 12 // status writeback (u32)
)

// Descriptor flags.
const (
	DescOWN = 0x8000_0000
	DescENP = 0x0100_0000
)

// BufSize is the adapter frame buffer capacity.
const BufSize = 4096

// CRCSize is the frame check sequence length appended on receive.
const CRCSize = 4

// Options configure the seeded vulnerabilities.
type Options struct {
	Fix7504 bool // bound the CRC append (CVE-2015-7504)
	Fix7512 bool // bound xmit_pos accumulation (CVE-2015-7512)
	Fix7909 bool // reject RCVRL = 0 (CVE-2016-7909)
}

// Device is the emulated network adapter.
type Device struct {
	*devutil.Base
}

// programs holds one built program per Options variant.
var programs = devutil.NewPrograms(build)

// New returns a fresh adapter at power-on values. Every instance of
// one Options variant runs the same shared program.
func New(opts Options) *Device {
	return &Device{Base: devutil.NewBase(programs.Get(opts), func(st *interp.State, p *ir.Program) {
		devutil.SetFunc(st, p, "irq_cb", "pcnet_update_irq")
		st.SetIntByName("rcvrl", 1)
		st.SetIntByName("xmtrl", 1)
		mac := []byte{0x52, 0x54, 0x00, 0x12, 0x34, 0x56}
		copy(st.Buf(p.FieldIndex("aprom")), mac)
	})}
}

func build(opts Options) *ir.Program {
	b := ir.NewBuilder("pcnet")

	// PCNetState control structure. buffer is immediately followed by
	// irq_cb: the CVE-2015-7504 CRC append walks into it.
	buffer := b.Buf("buffer", BufSize)
	irqCb := b.Func("irq_cb")
	xmitPos := b.Int("xmit_pos", ir.W32)
	csr0 := b.Int("csr0", ir.W16, ir.HWRegister())
	rap := b.Int("rap", ir.W16, ir.HWRegister())
	mode := b.Int("mode", ir.W16, ir.HWRegister())
	rcvrl := b.Int("rcvrl", ir.W16, ir.HWRegister())
	xmtrl := b.Int("xmtrl", ir.W16, ir.HWRegister())
	rdra := b.Int("rdra", ir.W32)
	tdra := b.Int("tdra", ir.W32)
	rcvrc := b.Int("rcvrc", ir.W16)
	xmtrc := b.Int("xmtrc", ir.W16)
	iaddr := b.Int("iaddr", ir.W32)
	bcr20 := b.Int("bcr20", ir.W16, ir.HWRegister())
	rxTries := b.Int("rx_tries", ir.W32)
	aprom := b.Buf("aprom", 16)

	buildDispatch(b, aprom)
	buildCSR(b, opts, csr0, rap, mode, rcvrl, xmtrl, rdra, tdra, rcvrc, xmtrc, iaddr, bcr20, irqCb)
	buildInit(b, opts, csr0, mode, rcvrl, xmtrl, rdra, tdra, rcvrc, xmtrc, iaddr, irqCb, aprom)
	buildTransmit(b, opts, buffer, xmitPos, csr0, mode, xmtrl, tdra, xmtrc, irqCb)
	buildReceive(b, opts, buffer, csr0, rcvrl, rdra, rcvrc, irqCb, xmitPos, rxTries)
	buildHelpers(b, csr0)

	b.Dispatch("pcnet_ioport")
	return devutil.MustBuild(b)
}

func buildDispatch(b *ir.Builder, aprom ir.FieldID) {
	h := b.Handler("pcnet_ioport")
	e := h.Block("entry").Entry()
	isw := e.IOIsWrite("dir = req->write")
	one := e.Const(1, "1")
	e.Branch(isw, ir.RelEQ, one, ir.W8, false, "if (req->write)", "wr", "rd")

	w := h.Block("wr")
	waddr := w.IOAddr("addr = req->addr")
	w.Switch(waddr, "switch (addr)", "out",
		ir.Case(PortRDP, "w_rdp"),
		ir.Case(PortRAP, "w_rap"),
		ir.Case(PortBDP, "w_bdp"),
		ir.Case(PortWire, "w_wire"),
	)
	wr := h.Block("w_rdp")
	wr.Call("pcnet_csr_writew", "pcnet_csr_writew(s, s->rap, v)")
	wr.Jump("out", "goto out")
	wa := h.Block("w_rap")
	wa.Call("pcnet_rap_write", "s->rap = v")
	wa.Jump("out", "goto out")
	wb := h.Block("w_bdp")
	wb.Call("pcnet_bcr_writew", "pcnet_bcr_writew(s, s->rap, v)")
	wb.Jump("out", "goto out")
	ww := h.Block("w_wire")
	ww.Call("pcnet_receive", "pcnet_receive(s, buf, size)")
	ww.Jump("out", "goto out")

	r := h.Block("rd")
	raddr := r.IOAddr("addr = req->addr")
	r.Switch(raddr, "switch (addr)", "r_aprom",
		ir.Case(PortRDP, "r_rdp"),
		ir.Case(PortRAP, "r_rap"),
		ir.Case(PortReset, "r_reset"),
		ir.Case(PortBDP, "r_bdp"),
	)
	rr := h.Block("r_rdp")
	rr.Call("pcnet_csr_readw", "v = pcnet_csr_readw(s, s->rap)")
	rr.Jump("out", "goto out")
	ra := h.Block("r_rap")
	ra.Call("pcnet_rap_read", "v = s->rap")
	ra.Jump("out", "goto out")
	rs := h.Block("r_reset")
	rs.Call("pcnet_soft_reset", "pcnet_soft_reset(s)")
	rs.Jump("out", "goto out")
	rb := h.Block("r_bdp")
	rb.Call("pcnet_bcr_readw", "v = pcnet_bcr_readw(s, s->rap)")
	rb.Jump("out", "goto out")

	// APROM reads return the station address byte at the low address
	// bits.
	ap := h.Block("r_aprom")
	addr2 := ap.IOAddr("addr = req->addr")
	mask := ap.Const(0x0F, "0x0f")
	idx := ap.Arith(ir.ALUAnd, addr2, mask, ir.W16, false, "addr & 0x0f")
	v := ap.BufLoad(aprom, idx, ir.W16, false, "v = s->aprom[addr & 0x0f]")
	ap.IOOut(v, ir.W8, "iowrite8(v)")
	ap.Jump("out", "goto out")

	h.Block("out").Exit().Halt("return")
}
