package machine

import (
	"errors"
	"fmt"
	"sync"
)

// This file adds the guest-session abstraction for concurrent
// enforcement: N independent instances of the same device program, each
// with its own control structure and interpreter, so parallel guests can
// drive the same device model. A Machine itself is single-threaded (its
// guest memory, virtual clock, interrupt controller, and work model are
// unsynchronized, like a QEMU instance under its big lock), so parallel
// sessions are hosted one machine each via Pool; NewSessionOn exists for
// serially-multiplexed co-hosting on one machine.

// BuildFunc constructs a fresh instance of a device plus the attachment
// options (bus windows, IRQ line) it should be plugged in with. It must
// return a new Device and State on every call: sessions own their control
// structures. Devices of one variant may share their read-only program.
type BuildFunc func() (Device, []AttachOption)

// Session is one guest driving its own instance of a device program: its
// own device state, its own interpreter, its own hosting machine (or a
// shared one, via NewSessionOn).
type Session struct {
	id  int
	m   *Machine
	att *Attached
}

// NewSession builds a fresh machine and attaches a fresh device instance
// to it. Each session created this way is fully independent and may be
// driven concurrently with its siblings.
func NewSession(id int, build BuildFunc, mopts ...Option) *Session {
	return NewSessionOn(New(mopts...), id, build)
}

// NewSessionOn attaches a fresh device instance to an existing machine.
// Sessions sharing one machine share its guest memory, clock, and
// interrupt controller and must be driven serially; use NewSession or
// Pool for parallel guests.
func NewSessionOn(m *Machine, id int, build BuildFunc) *Session {
	dev, opts := build()
	opts = append(opts, WithSessionID(id))
	return &Session{id: id, m: m, att: m.Attach(dev, opts...)}
}

// ID returns the session's identifier.
func (s *Session) ID() int { return s.id }

// Machine returns the hosting machine.
func (s *Session) Machine() *Machine { return s.m }

// Attached returns the session's device attachment.
func (s *Session) Attached() *Attached { return s.att }

// Device returns the session's device instance.
func (s *Session) Device() Device { return s.att.Dev() }

// Pool is a set of parallel guest sessions, one machine each, all running
// instances of the same device build. It is the substrate the concurrent
// enforcement engine is benchmarked on: every session gets a per-session
// checker from one shared sealed spec and the pool drives them in
// parallel.
type Pool struct {
	sessions []*Session
}

// NewPool builds n independent sessions (ids 0..n-1), each on its own
// machine.
func NewPool(n int, build BuildFunc, mopts ...Option) *Pool {
	p := &Pool{sessions: make([]*Session, n)}
	for i := range p.sessions {
		p.sessions[i] = NewSession(i, build, mopts...)
	}
	return p
}

// Len returns the number of sessions.
func (p *Pool) Len() int { return len(p.sessions) }

// Session returns the i-th session.
func (p *Pool) Session(i int) *Session { return p.sessions[i] }

// Sessions returns all sessions in id order.
func (p *Pool) Sessions() []*Session { return p.sessions }

// Run drives fn for every session on its own goroutine and waits for all
// of them, returning the joined per-session errors (each annotated with
// its session id). fn must confine itself to its session's machine plus
// read-only shared state.
func (p *Pool) Run(fn func(s *Session) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(p.sessions))
	for i, s := range p.sessions {
		wg.Add(1)
		go func(i int, s *Session) {
			defer wg.Done()
			if err := fn(s); err != nil {
				errs[i] = fmt.Errorf("session %d: %w", s.id, err)
			}
		}(i, s)
	}
	wg.Wait()
	return errors.Join(errs...)
}
