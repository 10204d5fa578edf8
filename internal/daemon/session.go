package daemon

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"sedspec"
	"sedspec/internal/checker"
	"sedspec/internal/cvesim"
	"sedspec/internal/machine"
	"sedspec/internal/simclock"
	"sedspec/internal/workload"
)

// AttachRequest opens one or more sessions against a tenant's engine.
type AttachRequest struct {
	Device string `json:"device"`
	// Workload drives the session's goroutine:
	//   "benign" (default) — the device's benign operation loop
	//   "mixed"            — benign ops with occasional rare (legitimate
	//                        but untrained) commands, the enhancement-
	//                        mode audit feeder
	//   "poc"              — replay the CVE exploit once, record the
	//                        verdict, then idle until detach
	//   "idle"             — attach the checker, drive nothing
	Workload string `json:"workload,omitempty"`
	// CVE selects the PoC for workload "poc" (default: the engine's
	// corpus PoC when installed from a cve corpus).
	CVE string `json:"cve,omitempty"`
	// Count attaches this many sessions in one call (default 1).
	Count int `json:"count,omitempty"`
	// Ops bounds benign/mixed loops: after Ops operations the session
	// idles until detached (0 = run until detach).
	Ops uint64 `json:"ops,omitempty"`
	// Seed perturbs the workload RNG (session i uses Seed+i).
	Seed uint64 `json:"seed,omitempty"`
}

// Verdict is a poc session's recorded outcome, shaped to match the
// batch CLI's replay so the two are directly comparable.
type Verdict struct {
	CVE      string `json:"cve"`
	Detected bool   `json:"detected"`
	Strategy string `json:"strategy,omitempty"`
	Severity string `json:"severity,omitempty"`
	Detail   string `json:"detail,omitempty"`
	// Succeeded is ground truth: the exploit's effect reached the
	// device.
	Succeeded bool `json:"succeeded"`
}

// SessionStatus is one session's control-plane view.
type SessionStatus struct {
	ID       int    `json:"id"`
	Device   string `json:"device"`
	Workload string `json:"workload"`
	CVE      string `json:"cve,omitempty"`
	Running  bool   `json:"running"`
	Rounds   uint64 `json:"rounds"`
	Blocked  uint64 `json:"blocked"`
	Warnings uint64 `json:"warnings"`
	SpecGen  uint64 `json:"spec_generation"`
	// Err is the error that ended the workload loop, if any (a blocked
	// anomaly halting the machine surfaces here in protection mode).
	Err     string   `json:"error,omitempty"`
	Verdict *Verdict `json:"verdict,omitempty"`
}

// Session is one live guest: a machine hosting the device, a
// per-session checker drawn from the tenant engine, and the goroutine
// driving the workload.
type Session struct {
	ID       int
	Device   string
	Workload string
	CVE      string
	Ops      uint64

	eng *engine
	ms  *machine.Session
	chk *checker.Checker

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	mu      sync.Mutex
	verdict *Verdict
	runErr  string
	retired bool
}

// Attach opens req.Count sessions against the tenant's engine for the
// device. Each session gets a fleet-unique ID, its own guest machine,
// and its own workload goroutine; the engine's attach event (stamped
// with tenant and session) is published for each.
func (t *Tenant) Attach(req AttachRequest) ([]*Session, error) {
	eng, err := t.engineFor(req.Device)
	if err != nil {
		return nil, err
	}
	kind := req.Workload
	if kind == "" {
		kind = "benign"
	}
	count := req.Count
	if count <= 0 {
		count = 1
	}
	if count > 1024 {
		return nil, fmt.Errorf("daemon: attach count %d exceeds 1024", count)
	}

	// Snapshot the engine's recipe once: a concurrent reinstall may
	// replace it, and every session from this call should see one
	// consistent recipe.
	rc := eng.rc.Load()

	var poc *cvesim.PoC
	switch kind {
	case "poc":
		cve := req.CVE
		if cve == "" && rc.poc != nil {
			cve = rc.poc.CVE
		}
		poc = cvesim.ByCVE(cve)
		if poc == nil {
			return nil, fmt.Errorf("daemon: unknown CVE %q", cve)
		}
		if poc.Device != req.Device {
			return nil, fmt.Errorf("daemon: %s targets device %q, not %q", cve, poc.Device, req.Device)
		}
	case "benign", "mixed", "idle":
	default:
		return nil, fmt.Errorf("daemon: unknown workload %q", kind)
	}

	sessions := make([]*Session, 0, count)
	for i := 0; i < count; i++ {
		id := int(t.d.nextSession.Add(1))
		ms := machine.NewSession(id, rc.target.Build, machine.WithMemory(1<<20))
		chk := sedspec.ProtectShared(ms.Attached(), eng.shared, checker.WithSessionID(id))
		s := &Session{
			ID:       id,
			Device:   req.Device,
			Workload: kind,
			Ops:      req.Ops,
			eng:      eng,
			ms:       ms,
			chk:      chk,
			stop:     make(chan struct{}),
			done:     make(chan struct{}),
		}
		if poc != nil {
			s.CVE = poc.CVE
		}

		t.mu.Lock()
		if t.draining {
			t.mu.Unlock()
			// The tenant started draining between engineFor and here;
			// retire the half-built session and stop.
			close(s.done)
			s.retire()
			return nil, fmt.Errorf("daemon: tenant %q is draining", t.name)
		}
		t.sessions[s.ID] = s
		t.mu.Unlock()

		go s.run(poc, rc.target, req.Seed+uint64(i))
		sessions = append(sessions, s)
	}
	return sessions, nil
}

// Detach stops the session's goroutine, waits for it (bounded by the
// daemon's drain timeout), retires its checker — folding final stats
// into the engine's retired banks and publishing one detach event —
// and returns the final status.
func (t *Tenant) Detach(id int) (SessionStatus, error) {
	t.mu.Lock()
	s, ok := t.sessions[id]
	if ok {
		delete(t.sessions, id)
	}
	t.mu.Unlock()
	if !ok {
		return SessionStatus{}, fmt.Errorf("daemon: tenant %q has no session %d", t.name, id)
	}
	s.signalStop()
	if !s.waitDone(t.d.opts.DrainTimeout) {
		return SessionStatus{}, fmt.Errorf("daemon: session %d did not stop within %s", id, t.d.opts.DrainTimeout)
	}
	st := s.Status()
	s.retire()
	return st, nil
}

// Sessions lists the tenant's live sessions in ID order.
func (t *Tenant) Sessions() []SessionStatus {
	t.mu.Lock()
	ss := make([]*Session, 0, len(t.sessions))
	for _, s := range t.sessions {
		ss = append(ss, s)
	}
	t.mu.Unlock()
	out := make([]SessionStatus, 0, len(ss))
	for _, s := range ss {
		out = append(out, s.Status())
	}
	slices.SortFunc(out, func(a, b SessionStatus) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// Session returns the live session's status.
func (t *Tenant) Session(id int) (SessionStatus, bool) {
	t.mu.Lock()
	s, ok := t.sessions[id]
	t.mu.Unlock()
	if !ok {
		return SessionStatus{}, false
	}
	return s.Status(), true
}

// Status snapshots the session. Counters come from the checker's
// atomic stat bank; the generation is the engine's current one (the
// session adopts it at its next round), read from the RCU pointer —
// the checker's own specGen field belongs to the session goroutine.
func (s *Session) Status() SessionStatus {
	st := s.chk.Stats()
	out := SessionStatus{
		ID:       s.ID,
		Device:   s.Device,
		Workload: s.Workload,
		CVE:      s.CVE,
		Rounds:   st.Rounds,
		Blocked:  st.Blocked,
		Warnings: st.Warnings,
		SpecGen:  s.eng.shared.Generation(),
	}
	select {
	case <-s.done:
	default:
		out.Running = true
	}
	s.mu.Lock()
	out.Err = s.runErr
	out.Verdict = s.verdict
	s.mu.Unlock()
	return out
}

func (s *Session) signalStop() {
	s.stopOnce.Do(func() { close(s.stop) })
}

// waitDone waits for the workload goroutine, bounded by d.
func (s *Session) waitDone(d time.Duration) bool {
	if d <= 0 {
		select {
		case <-s.done:
			return true
		default:
			return false
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-s.done:
		return true
	case <-t.C:
		return false
	}
}

// retire closes the session's checker exactly once: counters fold into
// the engine's retired banks, the recorder folds into the registry,
// and one final detach event is published. The caller must have
// observed done (the workload goroutine still uses the checker until
// then).
func (s *Session) retire() {
	s.mu.Lock()
	if s.retired {
		s.mu.Unlock()
		return
	}
	s.retired = true
	s.mu.Unlock()
	sedspec.Unprotect(s.ms.Attached())
}

func (s *Session) setErr(err error) {
	s.mu.Lock()
	s.runErr = err.Error()
	s.mu.Unlock()
}

// run is the session goroutine: drive the workload, then idle until
// detach. It never exits before the stop signal, so the checker and
// machine stay valid until the control plane retires them.
func (s *Session) run(poc *cvesim.PoC, target *workload.Target, seed uint64) {
	defer close(s.done)
	switch s.Workload {
	case "idle":
	case "poc":
		s.replayPoC(poc)
	default:
		s.drive(target, seed)
	}
	<-s.stop
}

// replayPoC replays the exploit exactly as the batch CLI does
// (cvesim.PoC.RunProtected): one exploit pass, verdict from the
// anomaly error, ground truth from the device probe.
func (s *Session) replayPoC(p *cvesim.PoC) {
	err := p.Exploit(sedspec.NewDriver(s.ms.Attached()), s.ms.Machine())
	v := &Verdict{CVE: p.CVE}
	var anom *checker.Anomaly
	if errors.As(err, &anom) {
		v.Detected = true
		v.Strategy = anom.Strategy.String()
		v.Severity = anom.Severity().String()
		v.Detail = anom.Detail
	} else if err != nil && !errors.Is(err, machine.ErrBlocked) && !errors.Is(err, machine.ErrHalted) {
		s.setErr(err)
	}
	v.Succeeded = p.Succeeded(s.ms.Attached().Dev(), s.ms.Machine())
	s.mu.Lock()
	s.verdict = v
	s.mu.Unlock()
}

// drive loops the benign (or mixed) workload until the ops bound, an
// error (a blocked anomaly halting the machine lands here), or stop.
func (s *Session) drive(target *workload.Target, seed uint64) {
	d := sedspec.NewDriver(s.ms.Attached())
	w := target.NewSession(d, simclock.NewRand(seed^0x9e3779b97f4a7c15))
	if w.Prepare != nil {
		if err := w.Prepare(); err != nil {
			s.setErr(fmt.Errorf("prepare: %w", err))
			return
		}
	}
	var n uint64
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		var err error
		// Mixed sessions fold in rare-but-legitimate commands (roughly
		// 1 in 89 ops): untrained edges that warn in enhancement mode,
		// feeding the audit trail the enhance pipeline replays.
		if s.Workload == "mixed" && n%89 == 13 {
			err = w.Rare()
		} else {
			err = w.Op()
		}
		if err != nil {
			s.setErr(err)
			return
		}
		n++
		if s.Ops > 0 && n >= s.Ops {
			return
		}
	}
}
