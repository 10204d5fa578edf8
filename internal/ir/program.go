package ir

import (
	"fmt"
	"sort"
)

// BlockKind classifies basic blocks the way the ES-CFG does (paper §V-A2).
type BlockKind uint8

const (
	// KindNormal is an ordinary block.
	KindNormal BlockKind = iota
	// KindEntry is the first block reached for an I/O interaction.
	KindEntry
	// KindExit signals the end of an I/O round.
	KindExit
	// KindCmdDecision identifies the current device command and the blocks
	// accessible under it.
	KindCmdDecision
	// KindCmdEnd marks the conclusion of the current command's execution.
	KindCmdEnd
)

func (k BlockKind) String() string {
	switch k {
	case KindNormal:
		return "normal"
	case KindEntry:
		return "entry"
	case KindExit:
		return "exit"
	case KindCmdDecision:
		return "cmd-decision"
	case KindCmdEnd:
		return "cmd-end"
	default:
		return fmt.Sprintf("BlockKind(%d)", uint8(k))
	}
}

// Region classifies where a handler's code lives in the synthetic address
// space. The trace module's filters (paper §IV-A) keep only RegionDevice
// control flow: library calls are excluded by address range and kernel
// control flow by the ring filter.
type Region uint8

const (
	// RegionDevice is the emulated device's own code.
	RegionDevice Region = iota
	// RegionLibrary is shared-library helper code.
	RegionLibrary
	// RegionKernel is kernel-space code.
	RegionKernel
)

func (r Region) String() string {
	switch r {
	case RegionDevice:
		return "device"
	case RegionLibrary:
		return "library"
	case RegionKernel:
		return "kernel"
	default:
		return fmt.Sprintf("Region(%d)", uint8(r))
	}
}

// Block is a straight-line sequence of ops ending in a terminator.
type Block struct {
	Label string
	Kind  BlockKind
	Ops   []Op
	Term  Term

	// Addr is the block's synthetic start address, assigned by Finalize.
	Addr uint64
	// Index is the block's position within its handler.
	Index int
}

// OpAddr returns the synthetic address of the block's i'th op; i ==
// len(Ops) addresses the terminator.
func (b *Block) OpAddr(i int) uint64 { return b.Addr + uint64(i*opSize) }

// TermAddr returns the synthetic address of the block's terminator.
func (b *Block) TermAddr() uint64 { return b.OpAddr(len(b.Ops)) }

// Handler is one emulation routine: a CFG of basic blocks. Block 0 is the
// handler's entry.
type Handler struct {
	Name     string
	Index    int
	Region   Region
	Blocks   []Block
	NumTemps int
}

// Synthetic address-space layout. Device code is allocated from DeviceBase,
// library code from LibraryBase, and kernel code from KernelBase, so a
// [DeviceBase, LibraryBase) range filter isolates device control flow.
const (
	DeviceBase  uint64 = 0x0000_5555_0000_0000
	LibraryBase uint64 = 0x0000_7777_0000_0000
	KernelBase  uint64 = 0xFFFF_8000_0000_0000

	// opSize is the synthetic encoded size of one op or terminator.
	opSize = 4
)

// Program is a complete device program: the control structure declaration
// plus all handlers. Programs are built with a Builder and must be
// finalized before execution.
//
// A program is immutable once Build returns. Every device instance of
// one variant shares a single program (each instance owns only its
// interp.State), and checkers, sealed specs and store decodes read it
// concurrently without locks.
type Program struct {
	Name string

	Fields   []Field
	Handlers []Handler

	// DispatchHandler is the handler index invoked for each I/O request
	// (the MMIO/PIO entry routine).
	DispatchHandler int

	// ArenaSize is the control structure's total byte size after layout.
	ArenaSize int

	// DeviceCodeEnd is one past the last device-region address, so
	// [DeviceBase, DeviceCodeEnd) is the trace filter range.
	DeviceCodeEnd uint64

	fieldIdx   map[string]int
	handlerIdx map[string]int
	blockAddr  map[uint64]BlockRef
	finalized  bool
	// definite caches DefiniteTemps, computed once by finalize.
	definite bool
}

// BlockRef names a block by handler and block index.
type BlockRef struct {
	Handler int
	Block   int
}

// FieldIndex returns the index of the named field, or -1.
func (p *Program) FieldIndex(name string) int {
	if i, ok := p.fieldIdx[name]; ok {
		return i
	}
	return -1
}

// HandlerIndex returns the index of the named handler, or -1.
func (p *Program) HandlerIndex(name string) int {
	if i, ok := p.handlerIdx[name]; ok {
		return i
	}
	return -1
}

// BlockAt resolves a synthetic block start address to its handler/block, as
// the trace decoder must when reconstructing control flow from TIP packets.
func (p *Program) BlockAt(addr uint64) (BlockRef, bool) {
	r, ok := p.blockAddr[addr]
	return r, ok
}

// Block returns the referenced block. It panics on an invalid reference;
// references produced by this package are always valid.
func (p *Program) Block(ref BlockRef) *Block {
	return &p.Handlers[ref.Handler].Blocks[ref.Block]
}

// NumBlocks returns the total number of blocks across all handlers.
func (p *Program) NumBlocks() int {
	n := 0
	for i := range p.Handlers {
		n += len(p.Handlers[i].Blocks)
	}
	return n
}

// finalize performs arena layout, synthetic address assignment, and address
// indexing. Called by Builder.Build after label resolution.
func (p *Program) finalize() {
	// Control structure layout: declaration order, natural sizes, no
	// padding (QEMU device structs are effectively packed for our
	// purposes; adjacency is what matters for overflow semantics).
	off := 0
	for i := range p.Fields {
		p.Fields[i].ByteSize = p.Fields[i].storageSize()
		p.Fields[i].Offset = off
		off += p.Fields[i].ByteSize
	}
	p.ArenaSize = off

	// Address assignment: handlers packed sequentially per region.
	devNext, libNext, kernNext := DeviceBase, LibraryBase, KernelBase
	p.blockAddr = make(map[uint64]BlockRef, p.NumBlocks())
	for hi := range p.Handlers {
		h := &p.Handlers[hi]
		var next *uint64
		switch h.Region {
		case RegionLibrary:
			next = &libNext
		case RegionKernel:
			next = &kernNext
		default:
			next = &devNext
		}
		for bi := range h.Blocks {
			b := &h.Blocks[bi]
			b.Addr = *next
			b.Index = bi
			p.blockAddr[b.Addr] = BlockRef{Handler: hi, Block: bi}
			*next += uint64((len(b.Ops) + 1) * opSize)
		}
		// Handler gap to keep addresses distinguishable in dumps.
		*next += 16
	}
	p.DeviceCodeEnd = devNext
	p.definite = p.definiteTemps()
	p.finalized = true
}

// Validate checks structural invariants: resolved targets, temp ranges,
// field kind agreement, exactly one dispatch handler, non-empty handlers.
func (p *Program) Validate() error {
	if !p.finalized {
		return fmt.Errorf("ir: program %q not finalized", p.Name)
	}
	if p.DispatchHandler < 0 || p.DispatchHandler >= len(p.Handlers) {
		return fmt.Errorf("ir: program %q dispatch handler %d out of range", p.Name, p.DispatchHandler)
	}
	for hi := range p.Handlers {
		h := &p.Handlers[hi]
		if len(h.Blocks) == 0 {
			return fmt.Errorf("ir: handler %q has no blocks", h.Name)
		}
		for bi := range h.Blocks {
			if err := p.validateBlock(h, bi); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *Program) validateBlock(h *Handler, bi int) error {
	b := &h.Blocks[bi]
	where := func(i int) string {
		return fmt.Sprintf("ir: %s/%s/%s op %d", p.Name, h.Name, b.Label, i)
	}
	checkTemp := func(t int, i int) error {
		if t < 0 || t >= h.NumTemps {
			return fmt.Errorf("%s: temp %d out of range [0,%d)", where(i), t, h.NumTemps)
		}
		return nil
	}
	var temps []int
	for i := range b.Ops {
		op := &b.Ops[i]
		temps = op.usesTemps(temps[:0])
		if d := op.defsTemp(); d >= 0 {
			temps = append(temps, d)
		}
		for _, t := range temps {
			if err := checkTemp(t, i); err != nil {
				return err
			}
		}
		if err := p.validateOpFields(op, where(i)); err != nil {
			return err
		}
		if op.Code == OpCall {
			if op.Handler < 0 || op.Handler >= len(p.Handlers) {
				return fmt.Errorf("%s: call target %d out of range", where(i), op.Handler)
			}
		}
	}
	nBlocks := len(h.Blocks)
	var succ []int
	succ = b.Term.Successors(succ)
	for _, s := range succ {
		if s < 0 || s >= nBlocks {
			return fmt.Errorf("ir: %s/%s/%s terminator target %d out of range [0,%d)",
				p.Name, h.Name, b.Label, s, nBlocks)
		}
	}
	temps = b.Term.usesTemps(temps[:0])
	for _, t := range temps {
		if err := checkTemp(t, len(b.Ops)); err != nil {
			return err
		}
	}
	if b.Term.Kind == 0 {
		return fmt.Errorf("ir: %s/%s/%s missing terminator", p.Name, h.Name, b.Label)
	}
	return nil
}

func (p *Program) validateOpFields(op *Op, where string) error {
	needKind := func(fi int, want FieldKind) error {
		if fi < 0 || fi >= len(p.Fields) {
			return fmt.Errorf("%s: field %d out of range", where, fi)
		}
		if got := p.Fields[fi].Kind; got != want {
			return fmt.Errorf("%s: field %q is %s, want %s", where, p.Fields[fi].Name, got, want)
		}
		return nil
	}
	switch op.Code {
	case OpLoad, OpStore:
		return needKind(op.Field, FieldInt)
	case OpLoadFunc, OpStoreFunc, OpCallPtr:
		return needKind(op.Field, FieldFunc)
	case OpBufLoad, OpBufStore, OpDMAToBuf, OpDMAFromBuf, OpIOToBuf:
		return needKind(op.Field, FieldBuf)
	}
	return nil
}

// SortedBlockAddrs returns all block start addresses in ascending order,
// used by tests and dumps.
func (p *Program) SortedBlockAddrs() []uint64 {
	addrs := make([]uint64, 0, len(p.blockAddr))
	for a := range p.blockAddr {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return addrs
}
