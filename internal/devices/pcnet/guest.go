package pcnet

import (
	"encoding/binary"
	"fmt"

	"sedspec/internal/devices/devutil"
)

// Guest memory layout used by the driver helper.
const (
	guestInitBlock = 0x0100
	guestRxRing    = 0x0200
	guestTxRing    = 0x0400
	guestRxBufs    = 0x1_0000 // 8 KiB per slot
	guestTxBuf     = 0x3_0000
)

// Guest drives the adapter the way the Linux pcnet32 driver would:
// register access through RAP/RDP, initialization block setup, descriptor
// ring management, and interrupt acknowledgement.
type Guest struct {
	p     devutil.Port
	RxLen uint16
	TxLen uint16
	MAC   [6]byte
	// txSlot mirrors the device's transmit ring cursor.
	txSlot uint16
}

// NewGuest wraps a port driver with 4-slot rings.
func NewGuest(p devutil.Port) *Guest {
	return &Guest{p: p, RxLen: 4, TxLen: 4, MAC: [6]byte{0x52, 0x54, 0, 0, 0, 1}}
}

// WriteCSR selects a CSR through RAP and writes it through RDP.
func (g *Guest) WriteCSR(idx, v uint16) error {
	if _, err := g.p.Out(PortRAP, le16(idx)); err != nil {
		return err
	}
	_, err := g.p.Out(PortRDP, le16(v))
	return err
}

// ReadCSR selects and reads a CSR.
func (g *Guest) ReadCSR(idx uint16) (uint16, error) {
	if _, err := g.p.Out(PortRAP, le16(idx)); err != nil {
		return 0, err
	}
	out, _, err := g.p.In(PortRDP)
	if err != nil {
		return 0, err
	}
	if len(out) < 2 {
		return 0, fmt.Errorf("pcnet: short CSR read")
	}
	return binary.LittleEndian.Uint16(out), nil
}

// WriteBCR selects and writes a bus configuration register.
func (g *Guest) WriteBCR(idx, v uint16) error {
	if _, err := g.p.Out(PortRAP, le16(idx)); err != nil {
		return err
	}
	_, err := g.p.Out(PortBDP, le16(v))
	return err
}

// ReadBCR selects and reads a bus configuration register.
func (g *Guest) ReadBCR(idx uint16) (uint16, error) {
	if _, err := g.p.Out(PortRAP, le16(idx)); err != nil {
		return 0, err
	}
	out, _, err := g.p.In(PortBDP)
	if err != nil {
		return 0, err
	}
	if len(out) < 2 {
		return 0, fmt.Errorf("pcnet: short BCR read")
	}
	return binary.LittleEndian.Uint16(out), nil
}

// SoftReset reads the reset port.
func (g *Guest) SoftReset() error {
	_, _, err := g.p.In(PortReset)
	return err
}

// ReadMAC reads the station address PROM.
func (g *Guest) ReadMAC() ([6]byte, error) {
	var mac [6]byte
	for i := 0; i < 6; i++ {
		out, _, err := g.p.In(PortAPROM + uint64(i))
		if err != nil {
			return mac, err
		}
		if len(out) > 0 {
			mac[i] = out[0]
		}
	}
	return mac, nil
}

// Setup writes the initialization block, runs INIT, acknowledges IDON, and
// starts the adapter. mode selects CSR15 bits (ModeLoop for loopback).
func (g *Guest) Setup(mode uint16) error {
	mem := g.p.Machine().Mem
	ib := make([]byte, 22)
	binary.LittleEndian.PutUint16(ib[0:], mode)
	binary.LittleEndian.PutUint16(ib[2:], g.RxLen)
	binary.LittleEndian.PutUint16(ib[4:], g.TxLen)
	binary.LittleEndian.PutUint32(ib[8:], guestRxRing)
	binary.LittleEndian.PutUint32(ib[12:], guestTxRing)
	copy(ib[16:], g.MAC[:])
	if err := mem.Write(guestInitBlock, ib); err != nil {
		return err
	}
	// Clear the rings.
	zero := make([]byte, 16*int(g.RxLen))
	if err := mem.Write(guestRxRing, zero); err != nil {
		return err
	}
	zero = make([]byte, 16*int(g.TxLen))
	if err := mem.Write(guestTxRing, zero); err != nil {
		return err
	}

	if err := g.WriteCSR(1, uint16(guestInitBlock)); err != nil {
		return err
	}
	if err := g.WriteCSR(2, uint16(guestInitBlock>>16)); err != nil {
		return err
	}
	if err := g.WriteCSR(0, CSR0Init); err != nil {
		return err
	}
	c, err := g.ReadCSR(0)
	if err != nil {
		return err
	}
	if c&CSR0IDON == 0 {
		return fmt.Errorf("pcnet: IDON not set after init (csr0=%#x)", c)
	}
	// Acknowledge IDON and start.
	if err := g.WriteCSR(0, CSR0IDON|CSR0Strt); err != nil {
		return err
	}
	g.txSlot = 0
	return nil
}

// ProvideRx arms receive descriptor slot with an owned buffer.
func (g *Guest) ProvideRx(slot uint16) error {
	mem := g.p.Machine().Mem
	desc := make([]byte, 16)
	binary.LittleEndian.PutUint32(desc[DescAddr:], uint32(guestRxBufs)+uint32(slot)*0x2000)
	binary.LittleEndian.PutUint32(desc[DescFlags:], DescOWN)
	binary.LittleEndian.PutUint32(desc[DescLen:], 0x2000)
	return mem.Write(guestRxRing+uint64(slot)*16, desc)
}

// ClearRx releases a receive descriptor (not owned by the device).
func (g *Guest) ClearRx(slot uint16) error {
	mem := g.p.Machine().Mem
	return mem.Write(guestRxRing+uint64(slot)*16+DescFlags, []byte{0, 0, 0, 0})
}

// RxStatus reads a receive descriptor's writeback (flags, message length).
func (g *Guest) RxStatus(slot uint16) (flags uint32, mlen uint32, err error) {
	mem := g.p.Machine().Mem
	buf := make([]byte, 16)
	if err := mem.Read(guestRxRing+uint64(slot)*16, buf); err != nil {
		return 0, 0, err
	}
	return binary.LittleEndian.Uint32(buf[DescFlags:]), binary.LittleEndian.Uint32(buf[DescStat:]), nil
}

// Transmit queues frame chunks as a descriptor chain at the ring cursor
// and rings TDMD. Each chunk gets its own TMD; the last carries ENP.
func (g *Guest) Transmit(chunks ...[]byte) error {
	mem := g.p.Machine().Mem
	addr := uint64(guestTxBuf)
	for i, chunk := range chunks {
		if err := mem.Write(addr, chunk); err != nil {
			return err
		}
		slot := (g.txSlot + uint16(i)) % g.TxLen
		desc := make([]byte, 16)
		binary.LittleEndian.PutUint32(desc[DescAddr:], uint32(addr))
		flags := uint32(DescOWN)
		if i == len(chunks)-1 {
			flags |= DescENP
		}
		binary.LittleEndian.PutUint32(desc[DescFlags:], flags)
		binary.LittleEndian.PutUint32(desc[DescLen:], uint32(len(chunk)))
		if err := mem.Write(guestTxRing+uint64(slot)*16, desc); err != nil {
			return err
		}
		addr += uint64(len(chunk))
	}
	g.txSlot = (g.txSlot + uint16(len(chunks))) % g.TxLen
	return g.WriteCSR(0, CSR0TDMD)
}

// MinFrameLen is the Ethernet minimum frame length without the FCS.
const MinFrameLen = 60

// InjectWireFrame hands a frame from the network backend to the adapter.
// Like QEMU's network backend, it zero-pads a runt frame to MinFrameLen
// before the adapter sees it.
func (g *Guest) InjectWireFrame(frame []byte) error {
	_, err := g.p.Out(PortWire, padFrame(frame))
	return err
}

// padFrame returns frame, or a zero-padded copy of it when it is shorter
// than MinFrameLen.
func padFrame(frame []byte) []byte {
	if len(frame) >= MinFrameLen {
		return frame
	}
	padded := make([]byte, MinFrameLen)
	copy(padded, frame)
	return padded
}

// AckInterrupts clears pending TINT/RINT/IDON bits.
func (g *Guest) AckInterrupts() error {
	c, err := g.ReadCSR(0)
	if err != nil {
		return err
	}
	return g.WriteCSR(0, c&(CSR0IDON|CSR0TINT|CSR0RINT))
}

func le16(v uint16) []byte {
	b := make([]byte, 2)
	binary.LittleEndian.PutUint16(b, v)
	return b
}
