// Package machine provides the miniature hypervisor substrate that hosts
// emulated devices: guest memory, a PMIO/MMIO bus, an interrupt controller,
// DMA services, and the interposition point where SEDSpec's ES-Checker
// validates each I/O interaction before the device consumes it.
//
// It stands in for the QEMU/KVM dispatch path of the paper: a guest I/O
// request is routed to the owning device's emulation routine, which may
// raise interrupts and access guest memory, then control returns to the
// guest.
package machine

import (
	"errors"
	"fmt"
	"maps"

	"sedspec/internal/interp"
	"sedspec/internal/ir"
	"sedspec/internal/simclock"
)

// Errors returned by the dispatch path.
var (
	// ErrHalted means the machine was halted (protection mode stop).
	ErrHalted = errors.New("machine: halted")
	// ErrNoDevice means no device claims the address.
	ErrNoDevice = errors.New("machine: no device at address")
	// ErrBlocked wraps an interposer rejection (checker anomaly).
	ErrBlocked = errors.New("machine: I/O blocked by interposer")
)

// Device is an emulated device attachable to a machine.
type Device interface {
	// Name identifies the device (for example "fdc").
	Name() string
	// Program is the device's emulation program.
	Program() *ir.Program
	// State is the device's control structure.
	State() *interp.State
	// Reset re-initializes the control structure to power-on values.
	Reset()
}

// Interposer inspects an I/O request before the device executes it. A
// non-nil error blocks the request; the ES-Checker in protection mode also
// halts the machine.
type Interposer interface {
	PreIO(dev Device, req *interp.Request) error
}

// PostInterposer is an optional extension: PostIO runs after the device
// executed an allowed request. The ES-Checker uses it to resynchronize its
// shadow device state after warning-only rounds in enhancement mode.
type PostInterposer interface {
	PostIO(dev Device, req *interp.Request, res *interp.Result)
}

// IRQController tracks interrupt line levels and delivery counts.
type IRQController struct {
	level map[int]bool
	count map[int]int
}

// NewIRQController returns an empty controller.
func NewIRQController() *IRQController {
	return &IRQController{level: make(map[int]bool), count: make(map[int]int)}
}

// Assert raises a line; each rising edge counts one delivery.
func (c *IRQController) Assert(line int) {
	if !c.level[line] {
		c.level[line] = true
		c.count[line]++
	}
}

// Deassert lowers a line.
func (c *IRQController) Deassert(line int) { c.level[line] = false }

// Level reports a line's current level.
func (c *IRQController) Level(line int) bool { return c.level[line] }

// Deliveries reports how many rising edges a line has seen.
func (c *IRQController) Deliveries(line int) int { return c.count[line] }

// clone returns a deep copy of the controller.
func (c *IRQController) clone() IRQController {
	return IRQController{level: maps.Clone(c.level), count: maps.Clone(c.count)}
}

// Machine hosts devices and routes guest I/O to them.
type Machine struct {
	Mem   *GuestMemory
	IRQ   *IRQController
	Clock *simclock.Clock

	devices []*Attached
	halted  bool
	// workScratch is reused by the emulation-work model.
	workScratch [4096]byte
	workSum     uint64
}

// Option configures a Machine.
type Option func(*Machine)

// WithMemory sets guest memory size (default 16 MiB). Memory is paged on
// first write, so the size bounds what the guest may address, not what
// the machine allocates.
func WithMemory(size int) Option {
	return func(m *Machine) { m.Mem = NewGuestMemory(size) }
}

// New creates a machine.
func New(opts ...Option) *Machine {
	m := &Machine{
		IRQ:   NewIRQController(),
		Clock: simclock.New(),
	}
	for _, o := range opts {
		o(m)
	}
	if m.Mem == nil {
		m.Mem = NewGuestMemory(16 << 20)
	}
	return m
}

// Halted reports whether the machine is stopped.
func (m *Machine) Halted() bool { return m.halted }

// Halt stops the machine; all further I/O fails with ErrHalted. The
// ES-Checker calls this in protection mode.
func (m *Machine) Halt() { m.halted = true }

// Resume clears a halt (used between experiments).
func (m *Machine) Resume() { m.halted = false }

// Attached is a device plugged into a machine, with its bus windows and
// interpreter.
type Attached struct {
	dev     Device
	in      *interp.Interp
	machine *Machine

	irqLine  int
	pioBase  uint64
	pioSize  uint64
	mmioBase uint64
	mmioSize uint64

	interposers []Interposer

	// env values are stable within a round: link up and media present
	// (both default true, changed by SetLink and SetMedia), and a
	// per-round turn token derived from the round counter.
	linkUp       bool
	mediaPresent bool
	round        uint64

	// sessionID identifies the guest session this attachment serves, for
	// observability events; -1 means unassigned (single-guest machine).
	sessionID int
}

// AttachOption configures device attachment.
type AttachOption func(*Attached)

// WithPIO claims a port window [base, base+size).
func WithPIO(base, size uint64) AttachOption {
	return func(a *Attached) { a.pioBase, a.pioSize = base, size }
}

// WithMMIO claims an MMIO window [base, base+size).
func WithMMIO(base, size uint64) AttachOption {
	return func(a *Attached) { a.mmioBase, a.mmioSize = base, size }
}

// WithIRQLine sets the device's interrupt line (default: attachment order).
func WithIRQLine(line int) AttachOption {
	return func(a *Attached) { a.irqLine = line }
}

// WithSessionID tags the attachment with the guest session it serves.
// The ID flows into every flight-recorder event the checker emits for
// this device, so concurrent-session traces stay attributable.
func WithSessionID(id int) AttachOption {
	return func(a *Attached) {
		if id >= 0 {
			a.sessionID = id
		}
	}
}

// SetLink changes the device's link status at runtime (cable pull /
// replug). Stable within an I/O round.
func (a *Attached) SetLink(up bool) { a.linkUp = up }

// SetMedia changes media presence at runtime (disk eject / insert).
func (a *Attached) SetMedia(present bool) { a.mediaPresent = present }

// Attach plugs a device into the machine and returns its attachment.
func (m *Machine) Attach(dev Device, opts ...AttachOption) *Attached {
	a := &Attached{
		dev:          dev,
		machine:      m,
		irqLine:      len(m.devices),
		linkUp:       true,
		mediaPresent: true,
		sessionID:    -1,
	}
	for _, o := range opts {
		o(a)
	}
	a.in = interp.New(dev.Program(), dev.State(), a)
	m.devices = append(m.devices, a)
	return a
}

// Device returns the attachment for the named device, or nil.
func (m *Machine) Device(name string) *Attached {
	for _, a := range m.devices {
		if a.dev.Name() == name {
			return a
		}
	}
	return nil
}

// Devices returns all attachments in attach order.
func (m *Machine) Devices() []*Attached { return m.devices }

// Dev returns the attached device.
func (a *Attached) Dev() Device { return a.dev }

// Machine returns the hosting machine.
func (a *Attached) Machine() *Machine { return a.machine }

// Interp returns the device's interpreter, for installing tracers,
// observers, and watch sets during specification construction.
func (a *Attached) Interp() *interp.Interp { return a.in }

// IRQLine returns the device's interrupt line number.
func (a *Attached) IRQLine() int { return a.irqLine }

// SessionID returns the guest-session ID tagged at attach time, or -1
// for a single-guest machine.
func (a *Attached) SessionID() int { return a.sessionID }

// AddInterposer appends an I/O interposer (the ES-Checker).
func (a *Attached) AddInterposer(i Interposer) { a.interposers = append(a.interposers, i) }

// Interposers returns the attached interposers in dispatch order. The
// facade's Unprotect walks this to retire checkers (fold their stats,
// close their recorders) before detaching them.
func (a *Attached) Interposers() []Interposer {
	out := make([]Interposer, len(a.interposers))
	copy(out, a.interposers)
	return out
}

// ClearInterposers removes all interposers.
func (a *Attached) ClearInterposers() { a.interposers = nil }

// Env implementation: the attachment is the device's machine environment.

// DMARead implements interp.Env.
func (a *Attached) DMARead(addr uint64, buf []byte) error {
	return a.machine.Mem.Read(addr, buf)
}

// DMAWrite implements interp.Env.
func (a *Attached) DMAWrite(addr uint64, buf []byte) error {
	return a.machine.Mem.Write(addr, buf)
}

// RaiseIRQ implements interp.Env.
func (a *Attached) RaiseIRQ() { a.machine.IRQ.Assert(a.irqLine) }

// LowerIRQ implements interp.Env.
func (a *Attached) LowerIRQ() { a.machine.IRQ.Deassert(a.irqLine) }

// vmExitCost is the fixed per-dispatch CPU model (units of burn
// iterations): the VM exit/entry, dispatch, and locking a real hypervisor
// pays before the device emulation proper runs.
const vmExitCost = 24576

// workScale is the CPU burned per byte of emulation work, standing in for
// the checksum, format, and block/medium layers of real device emulation.
const workScale = 4

// bytesPerMicro is the device speed: bytes of emulation work per
// microsecond of virtual time.
const bytesPerMicro = 100

// burn consumes a deterministic amount of CPU (n iterations).
func (m *Machine) burn(n int) {
	var sum uint64
	for done := 0; done < n; done += len(m.workScratch) {
		c := len(m.workScratch)
		if rem := n - done; rem < c {
			c = rem
		}
		for i := 0; i < c; i++ {
			sum = sum*31 + uint64(m.workScratch[i]) + uint64(i)
		}
	}
	m.workSum += sum
}

// Work implements interp.Env: n bytes of emulation work advance the virtual
// clock per the device speed and burn a deterministic amount of CPU so
// wall-clock benchmarks have a realistic emulation baseline.
func (a *Attached) Work(n int) {
	m := a.machine
	m.Clock.AdvanceMicros(int64(n / bytesPerMicro))
	m.burn(n * workScale)
}

// ReadEnv implements interp.Env. Values are stable within an I/O round so
// the ES-Checker's sync points and the device observe the same value: link
// and media are machine configuration, and the turn token is derived from
// the round counter, which DispatchDirect increments before interposers
// run.
func (a *Attached) ReadEnv(kind ir.EnvKind) uint64 {
	switch kind {
	case ir.EnvLink:
		if a.linkUp {
			return 1
		}
		return 0
	case ir.EnvMedia:
		if a.mediaPresent {
			return 1
		}
		return 0
	case ir.EnvTurn:
		return a.round & 1
	default:
		return 0
	}
}

var _ interp.Env = (*Attached)(nil)

func (a *Attached) claims(space interp.Space, addr uint64) bool {
	switch space {
	case interp.SpacePIO:
		return a.pioSize > 0 && addr >= a.pioBase && addr < a.pioBase+a.pioSize
	case interp.SpaceMMIO:
		return a.mmioSize > 0 && addr >= a.mmioBase && addr < a.mmioBase+a.mmioSize
	default:
		return false
	}
}

func (m *Machine) route(space interp.Space, addr uint64) *Attached {
	for _, a := range m.devices {
		if a.claims(space, addr) {
			return a
		}
	}
	return nil
}

// Dispatch routes one I/O request to the owning device, running
// interposers first. It returns the device's execution result; a blocked
// request returns a nil result and an error wrapping ErrBlocked.
func (m *Machine) Dispatch(req *interp.Request) (*interp.Result, error) {
	if m.halted {
		return nil, ErrHalted
	}
	a := m.route(req.Space, req.Addr)
	if a == nil {
		return nil, fmt.Errorf("%w: %s %#x", ErrNoDevice, req.Space, req.Addr)
	}
	return a.DispatchDirect(req)
}

// DispatchDirect dispatches a request to this device, bypassing routing but
// honoring interposers and the halt state.
func (a *Attached) DispatchDirect(req *interp.Request) (*interp.Result, error) {
	m := a.machine
	if m.halted {
		return nil, ErrHalted
	}
	a.round++
	for _, ip := range a.interposers {
		if err := ip.PreIO(a.dev, req); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBlocked, err)
		}
		if m.halted { // the interposer may have halted the machine
			return nil, ErrHalted
		}
	}
	// Base dispatch cost: one VM exit and re-entry. In a KVM/QEMU stack
	// this costs on the order of a microsecond of host CPU regardless of
	// what the device then does; modelling it keeps relative checker
	// overhead honest.
	m.Clock.AdvanceMicros(1)
	m.burn(vmExitCost)
	req.Rewind()
	res := a.in.Dispatch(req)
	for _, ip := range a.interposers {
		if pi, ok := ip.(PostInterposer); ok {
			pi.PostIO(a.dev, req, res)
		}
	}
	return res, nil
}

// PIOWrite issues a guest port write.
func (m *Machine) PIOWrite(port uint64, data []byte) (*interp.Result, error) {
	return m.Dispatch(interp.NewWrite(interp.SpacePIO, port, data))
}

// MMIOWrite issues a guest MMIO write.
func (m *Machine) MMIOWrite(addr uint64, data []byte) (*interp.Result, error) {
	return m.Dispatch(interp.NewWrite(interp.SpaceMMIO, addr, data))
}

// MMIORead issues a guest MMIO read.
func (m *Machine) MMIORead(addr uint64) ([]byte, *interp.Result, error) {
	req := interp.NewRead(interp.SpaceMMIO, addr)
	res, err := m.Dispatch(req)
	if err != nil {
		return nil, nil, err
	}
	return res.Output, res, nil
}
