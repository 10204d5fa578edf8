package trace

import (
	"encoding/binary"
	"slices"

	"sedspec/internal/interp"
	"sedspec/internal/ir"
)

// Config selects the collector's filters, mirroring the IPT configuration
// the paper's IPT module programs (paper §IV-A).
type Config struct {
	// FilterStart/FilterEnd restrict collection to branch sources in
	// [FilterStart, FilterEnd) — the emulated device's code range. Zero
	// values disable the range filter.
	FilterStart uint64
	FilterEnd   uint64
	// SuppressKernel drops events whose source is kernel-space code.
	SuppressKernel bool
}

// DeviceConfig returns the standard configuration for a device program:
// range-filtered to the device's code and kernel-suppressed.
func DeviceConfig(p *ir.Program) Config {
	return Config{
		FilterStart:    ir.DeviceBase,
		FilterEnd:      p.DeviceCodeEnd,
		SuppressKernel: true,
	}
}

// Collector buffers trace packets. It implements interp.Tracer and is
// installed on a device's interpreter during the data-collection phase.
//
// Packets are kept encoded, a few bytes each, in one append-only stream:
// a kind byte, then the IP as a uvarint (PGE, PGD, TIP) or the bit count
// and the bits packed oldest-first into one byte (TNT). Packets decodes
// the stream.
type Collector struct {
	cfg    Config
	stream []byte
	tntBuf []bool
	stats  Stats
}

var _ interp.Tracer = (*Collector)(nil)

// NewCollector returns a collector with the given filter configuration.
func NewCollector(cfg Config) *Collector {
	return &Collector{cfg: cfg, tntBuf: make([]bool, 0, tntCapacity)}
}

// Fork returns a collector that continues this one's stream: it starts
// with the packets and statistics collected so far, and what it collects
// next is its own. The collector forked from is never written through
// the fork, so several forks of one collector may run concurrently.
func (c *Collector) Fork() *Collector {
	return &Collector{
		cfg:    c.cfg,
		stream: slices.Clip(c.stream),
		tntBuf: append(make([]bool, 0, tntCapacity), c.tntBuf...),
		stats:  c.stats,
	}
}

// Packets decodes the collected packet stream. Each call returns fresh
// packets.
func (c *Collector) Packets() []Packet {
	out := make([]Packet, 0, c.stats.Packets)
	var bits []bool
	for s := c.stream; len(s) > 0; {
		p := Packet{Kind: PacketKind(s[0])}
		if p.Kind == PktTNT {
			n := int(s[1])
			if cap(bits)-len(bits) < n {
				bits = make([]bool, 0, max(n, 4096))
			}
			for i := 0; i < n; i++ {
				bits = append(bits, s[2]&(1<<i) != 0)
			}
			p.Bits, bits = bits[:n:n], bits[n:]
			s = s[3:]
		} else {
			var k int
			p.Addr, k = binary.Uvarint(s[1:])
			s = s[1+k:]
		}
		out = append(out, p)
	}
	return out
}

// Stats returns collection statistics.
func (c *Collector) Stats() Stats { return c.stats }

// Reset clears the packet buffer and statistics. The stream is dropped,
// not reused: a fork may share it.
func (c *Collector) Reset() {
	c.stream = nil
	c.tntBuf = c.tntBuf[:0]
	c.stats = Stats{}
}

// pass applies the configured filters to a branch source address.
func (c *Collector) pass(from uint64) bool {
	c.stats.Events++
	if c.cfg.SuppressKernel && from >= ir.KernelBase {
		c.stats.FilteredKernel++
		return false
	}
	if c.cfg.FilterEnd != 0 && (from < c.cfg.FilterStart || from >= c.cfg.FilterEnd) {
		c.stats.FilteredRange++
		return false
	}
	return true
}

// emit appends an IP-carrying packet (PGE, PGD, TIP).
func (c *Collector) emit(kind PacketKind, addr uint64) {
	c.stream = binary.AppendUvarint(append(c.stream, byte(kind)), addr)
	c.stats.Packets++
}

func (c *Collector) flushTNT() {
	if len(c.tntBuf) == 0 {
		return
	}
	var bits byte
	for i, taken := range c.tntBuf {
		if taken {
			bits |= 1 << i
		}
	}
	c.stream = append(c.stream, byte(PktTNT), byte(len(c.tntBuf)), bits)
	c.stats.Packets++
	c.tntBuf = c.tntBuf[:0]
}

// TraceStart implements interp.Tracer.
func (c *Collector) TraceStart(addr uint64) {
	c.emit(PktPGE, addr)
}

// TraceEnd implements interp.Tracer.
func (c *Collector) TraceEnd(addr uint64) {
	c.flushTNT()
	c.emit(PktPGD, addr)
}

// TraceBranch implements interp.Tracer.
func (c *Collector) TraceBranch(from uint64, taken bool) {
	if !c.pass(from) {
		return
	}
	c.tntBuf = append(c.tntBuf, taken)
	if len(c.tntBuf) == tntCapacity {
		c.flushTNT()
	}
}

// TraceIndirect implements interp.Tracer.
func (c *Collector) TraceIndirect(from, target uint64) {
	if !c.pass(from) {
		return
	}
	// TNT bits must stay ordered relative to TIPs for the decoder.
	c.flushTNT()
	c.emit(PktTIP, target)
}
