package machine

import (
	"fmt"
	"time"
)

// Snapshot captures the machine's restorable state: guest memory, every
// attached device's control structure, and the virtual clock. The paper's
// discussion (§VIII) names rollback to a pre-exploitation point as the
// natural next step beyond halting; Snapshot/Restore provide it.
type Snapshot struct {
	memSize int
	mem     []*page // touched pages only; nil for untouched
	devices [][]byte
	clock   time.Duration
}

// Snapshot captures the current machine state.
func (m *Machine) Snapshot() *Snapshot {
	s := &Snapshot{
		memSize: m.Mem.size,
		mem:     m.Mem.snapshot(),
		clock:   m.Clock.Now(),
	}
	for _, a := range m.devices {
		s.devices = append(s.devices, append([]byte(nil), a.dev.State().Bytes()...))
	}
	return s
}

// Restore rolls the machine back to the snapshot and clears a halt. It
// fails if the device set changed since the snapshot was taken.
func (m *Machine) Restore(s *Snapshot) error {
	if len(s.devices) != len(m.devices) {
		return fmt.Errorf("machine: snapshot has %d devices, machine has %d",
			len(s.devices), len(m.devices))
	}
	if s.memSize != m.Mem.size {
		return fmt.Errorf("machine: snapshot memory size %d != %d", s.memSize, m.Mem.size)
	}
	for i, a := range m.devices {
		if len(s.devices[i]) != len(a.dev.State().Bytes()) {
			return fmt.Errorf("machine: device %d control structure size changed", i)
		}
	}
	m.Mem.restore(s.mem)
	for i, a := range m.devices {
		copy(a.dev.State().Bytes(), s.devices[i])
	}
	// The clock cannot rewind (monotonic virtual time); account the
	// restore as elapsed time instead.
	if d := s.clock - m.Clock.Now(); d > 0 {
		m.Clock.Advance(d)
	}
	m.halted = false
	return nil
}

// Checkpoint is a Snapshot plus what a device run leaves on its
// attachment and interrupt controller: the round counter (whose parity
// is EnvTurn), link and media status, the interpreter's step budget and
// the interrupt lines. Resume puts it onto a fresh attachment of the same
// device, so a run continues exactly where the checkpointed one stopped.
// A checkpoint is never written after it is taken: any number of
// attachments may resume from it, concurrently.
type Checkpoint struct {
	snap       *Snapshot
	round      uint64
	linkUp     bool
	media      bool
	stepBudget int
	irq        IRQController
}

// Checkpoint captures the attachment's machine and run state.
func (a *Attached) Checkpoint() *Checkpoint {
	return &Checkpoint{
		snap:       a.machine.Snapshot(),
		round:      a.round,
		linkUp:     a.linkUp,
		media:      a.mediaPresent,
		stepBudget: a.in.StepBudget(),
		irq:        a.machine.IRQ.clone(),
	}
}

// Resume restores cp onto the attachment: its machine as Restore does,
// then the attachment's run state and the interrupt lines.
func (a *Attached) Resume(cp *Checkpoint) error {
	if err := a.machine.Restore(cp.snap); err != nil {
		return err
	}
	a.round, a.linkUp, a.mediaPresent = cp.round, cp.linkUp, cp.media
	a.in.SetStepBudget(cp.stepBudget)
	*a.machine.IRQ = cp.irq.clone()
	return nil
}
