package checker

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"sedspec/internal/core"
	"sedspec/internal/interp"
	"sedspec/internal/ir"
	"sedspec/internal/obs"
	"sedspec/internal/obs/coverage"
	"sedspec/internal/obs/stream"
)

// Shared is the cross-session half of the concurrent enforcement engine:
// one specification sealed once, enforced for N parallel guest sessions.
//
// What is shared is exactly the immutable material — the current
// specVersion (SealedSpec, device program, entry material) and the check
// configuration (mode, strategies, budget, access control). Everything a
// simulated round mutates is per-session: the shadow device state, command
// tracking, frame stack, bump arenas, DMA journal, audit buffer, and
// counters. A session's steady-state check path therefore takes no lock
// and touches no cache line another session writes; the only
// cross-session traffic is read-only spec data plus one atomic load of
// the version pointer per round.
//
// Swap replaces the enforced specification under running sessions,
// RCU-style: a new version is published through the atomic pointer, each
// session adopts it at its next round boundary, and Swap returns only
// after the grace period — once every round that may still be walking the
// old version has finished. No round is dropped or double-checked.
//
// Session scratch (frame stack and bump arenas) is recycled through a
// sync.Pool so that short-lived sessions — one per connecting guest in a
// fleet deployment — start with warm, right-sized arenas instead of
// re-growing them over their first rounds.
//
// The session registry and what closed sessions leave behind (counters,
// coverage, audit records) sit under one lock, mu. Only opening, closing
// and adopting sessions, publication and aggregate readers take it, never
// a check round; because a session moves from the open list to the
// retired banks under mu, every aggregate read sees it exactly once.
type Shared struct {
	device string
	// cur is the published spec version. Sessions load it once per round;
	// Swap stores a successor and grace-waits.
	cur atomic.Pointer[specVersion]

	// cfg is the check configuration every session starts from; per-session
	// options (typically WithEnv and WithHalt: each guest's machine is its
	// own environment) override it. Its registry (cfg.obsReg) and hub are
	// resolved.
	cfg config

	scratchPool sync.Pool

	// swaps counts published versions beyond the first.
	swaps atomic.Uint64

	// swapMu serializes Swap's publication+grace sequence; it is never
	// taken on the check path or by session open/close.
	swapMu sync.Mutex

	// mu guards the registry below. The lock order is mu, then a
	// session's warnMu.
	mu sync.Mutex
	// sessions lists the open sessions; nextSession is the next
	// auto-assigned session ID.
	sessions    []*Checker
	nextSession int
	// retired sums closed sessions' counters.
	retired Stats
	// retiredCov accumulates the coverage counters of sessions that
	// closed or moved on, one bank per generation (counter index spaces
	// are per-generation). A bank lives only while its generation is
	// retained: current, or still run by an open session.
	retiredCov []retiredCoverage
	// retiredAudit holds the audit records closed sessions leave behind,
	// capped at MaxPendingWarnings.
	retiredAudit []AuditRecord
}

// retiredCoverage is one generation's bank in retiredCov.
type retiredCoverage struct {
	v    *specVersion
	snap coverage.Snapshot
}

// scratch is one session's recyclable simulation storage: the frame stack
// and the flat bump arenas behind it, plus the DMA writeback journal. All
// of it is length-trimmed (capacity kept) between owners.
type scratch struct {
	frames    []simFrame
	tempArena []uint64
	flagArena []interp.Flags
	dmaLog    []dmaWrite
}

// NewShared seals the specification once and returns the engine that
// enforces it across sessions. Options fix the check configuration every
// session inherits.
func NewShared(spec *core.Spec, opts ...Option) *Shared {
	return NewSharedCompiled(Compile(spec), opts...)
}

// NewSharedCompiled is NewShared for an already compiled spec: the
// engine publishes cv as its first generation without sealing again.
func NewSharedCompiled(cv *Compiled, opts ...Option) *Shared {
	s := &Shared{device: cv.sealed.Device, cfg: newConfig(opts)}
	// A recorder, clock and session ID belong to one session: every
	// session gets its own.
	s.cfg.rec, s.cfg.recSet, s.cfg.clock, s.cfg.sessionID = nil, false, nil, -1
	if s.cfg.obsReg == nil {
		s.cfg.obsReg = obs.Default()
	}
	if !s.cfg.hubSet {
		s.cfg.hub = stream.Default()
	}
	s.cur.Store(&specVersion{gen: 1, Compiled: cv})
	s.scratchPool.New = func() any { return &scratch{} }
	return s
}

// Mode returns the working mode every session enforces.
func (s *Shared) Mode() Mode { return s.cfg.mode }

// Sealed exposes the current sealed specification (diagnostics, tests).
func (s *Shared) Sealed() *core.SealedSpec { return s.cur.Load().sealed }

// Generation returns the current spec version's generation (1 before any
// swap, +1 per swap).
func (s *Shared) Generation() uint64 { return s.cur.Load().gen }

// SwapCount returns how many hot-swaps the engine has applied.
func (s *Shared) SwapCount() uint64 { return s.swaps.Load() }

// compatiblePrograms checks that a replacement spec's program presents
// the same runtime shape as the current one: same device, control
// structure layout, and handler/temp geometry. A session's shadow device
// state and recycled arenas survive a swap only under these invariants.
func compatiblePrograms(old, repl *ir.Program) error {
	if old == repl {
		return nil
	}
	if old.Name != repl.Name {
		return fmt.Errorf("checker: swap: program %q does not match %q", repl.Name, old.Name)
	}
	if old.ArenaSize != repl.ArenaSize || len(old.Fields) != len(repl.Fields) {
		return fmt.Errorf("checker: swap: control structure layout changed (%d/%d bytes, %d/%d fields)",
			repl.ArenaSize, old.ArenaSize, len(repl.Fields), len(old.Fields))
	}
	if len(old.Handlers) != len(repl.Handlers) {
		return fmt.Errorf("checker: swap: handler count changed (%d -> %d)",
			len(old.Handlers), len(repl.Handlers))
	}
	for i := range old.Handlers {
		if old.Handlers[i].NumTemps != repl.Handlers[i].NumTemps ||
			len(old.Handlers[i].Blocks) != len(repl.Handlers[i].Blocks) {
			return fmt.Errorf("checker: swap: handler %q geometry changed", old.Handlers[i].Name)
		}
	}
	return nil
}

// Swap atomically replaces the enforced specification with spec and waits
// out the grace period: on return, every session round that may have been
// walking the previous version has completed, and every subsequent round
// checks against the new version. Sessions in between rounds pick the new
// version up at their next PreIO; no I/O check is dropped, and no round
// observes two versions.
//
// Swap compiles spec and publishes it; see Publish for the compatibility
// rules and the concurrency contract.
func (s *Shared) Swap(spec *core.Spec) error { return s.Publish(Compile(spec)) }

// Publish makes cv the enforced specification, stamped with the next
// generation, with Swap's grace-period guarantee. A compiled version is
// immutable, so publishing one that this or another engine already
// enforces (a reinstall, a rollback) costs no sealing at all.
//
// The replacement must be for the same device and structurally compatible
// with the current program (sessions' shadow states survive the swap).
// Publish may be called from any goroutine; concurrent publications
// serialize. A session registering concurrently with publication needs
// no wait: NewSession loads the version before registering, and a
// session that is not yet registered cannot be mid-round — if it loaded
// the old version it adopts the new one at its first PreIO, so the grace
// wait only needs the sessions visible in the registry.
func (s *Shared) Publish(cv *Compiled) error {
	if cv.sealed.Device != s.device {
		return fmt.Errorf("checker: swap: spec is for device %q, engine enforces %q", cv.sealed.Device, s.device)
	}
	// Shape compatibility is transitive over the program geometry checks,
	// so validating against the version current at call time stays valid
	// even if a concurrent publication lands in between.
	if err := compatiblePrograms(s.cur.Load().prog, cv.prog); err != nil {
		return err
	}
	next := &specVersion{Compiled: cv}

	s.swapMu.Lock()
	old := s.cur.Load()
	next.gen = old.gen + 1
	s.cur.Store(next)
	s.swaps.Add(1)

	// Grace period. A session's epoch is odd while it is inside PreIO or
	// PreIOBatch (mid-round) and even between rounds. Any round entered
	// after the Store above adopts the new version, so the old version
	// remains reachable only by rounds whose epoch was already odd at
	// publication time; wait for each of those epochs to advance. mu is
	// held only long enough to snapshot the session list and release the
	// coverage of generations no session runs any more.
	s.mu.Lock()
	sessions := slices.Clone(s.sessions)
	s.pruneLocked()
	s.mu.Unlock()
	for _, c := range sessions {
		e := c.epoch.Load()
		if e&1 == 0 {
			continue
		}
		for c.epoch.Load() == e {
			runtime.Gosched()
		}
	}
	s.swapMu.Unlock()
	s.cfg.hub.Publish(stream.Event{
		Kind:    stream.KindSwap,
		Tenant:  s.cfg.tenant,
		Device:  s.device,
		Session: -1,
		SpecGen: next.gen,
		Swap:    &stream.SwapInfo{FromGen: old.gen, ToGen: next.gen},
	})
	return nil
}

// NewSession opens an enforcement session: a Checker sharing this
// engine's sealed spec, with its own shadow device state cloned from
// initial and its own recycled scratch. Per-session options typically
// wire the session's machine (WithEnv, WithHalt). The returned Checker
// is driven by one goroutine, concurrently with any number of sibling
// sessions.
//
// Every session gets its own flight recorder registered with the
// engine's observability registry on the engine's (tenant, device) row,
// under an auto-assigned session ID unless WithSessionID fixed one.
// Per-recorder event rings and metric banks mean sibling sessions never
// write a shared cache line for telemetry.
func (s *Shared) NewSession(initial *interp.State, opts ...Option) *Checker {
	v := s.cur.Load()
	c := &Checker{ver: v, specGen: v.gen, shared: s}
	c.config = s.cfg
	c.apply(opts)
	c.bind(v.Compiled)
	c.shadow = initial.Clone()
	v.sessions.Add(1)
	if !c.covOff {
		c.cov = coverage.NewMap(v.sealed.NumBlocks(), v.sealed.NumEdges())
		c.covGen = v.gen
	}
	sc := s.scratchPool.Get().(*scratch)
	c.pooled = sc
	c.frames = sc.frames[:0]
	c.tempArena = sc.tempArena[:0]
	c.flagArena = sc.flagArena[:0]
	c.dmaLog = sc.dmaLog[:0]

	s.mu.Lock()
	if c.sessionID < 0 {
		c.sessionID = s.nextSession
	}
	// A WithSessionID-fixed ID keeps the allocator ahead of it, so
	// auto-assigned siblings never collide.
	s.nextSession = max(s.nextSession, c.sessionID+1)
	s.sessions = append(s.sessions, c)
	s.mu.Unlock()
	if !c.recSet {
		c.rec = c.obsReg.NewRecorder(s.cfg.tenant, s.device, c.sessionID, obs.DefaultRingSize)
	}
	c.hub.Publish(stream.Event{
		Kind:    stream.KindAttach,
		Tenant:  c.tenant,
		Device:  s.device,
		Session: c.sessionID,
		SpecGen: c.specGen,
	})
	return c
}

// Close retires a session checker: its counters fold into the engine's
// retired bank, its coverage too while its generation is retained, its
// audit records drain into the engine's capped buffer, its flight
// recorder folds into the observability registry, and its scratch
// returns to the pool for the next session. Closing is idempotent; the
// checker must not be used after Close.
func (c *Checker) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.publish()
	if c.rec != nil {
		c.rec.Close()
	}
	final := c.stats.snapshot()
	c.hub.Publish(stream.Event{
		Kind:    stream.KindDetach,
		Tenant:  c.tenant,
		Device:  c.shared.device,
		Session: c.sessionID,
		SpecGen: c.specGen,
		Detach: &stream.SessionInfo{
			Rounds:   final.Rounds,
			Blocked:  final.Blocked,
			Warnings: final.Warnings,
		},
	})
	s := c.shared
	s.mu.Lock()
	s.sessions = slices.DeleteFunc(s.sessions, func(o *Checker) bool { return o == c })
	s.retired = s.retired.merge(final)
	c.warnMu.Lock()
	kept := min(len(c.audit), max(MaxPendingWarnings-len(s.retiredAudit), 0))
	s.retiredAudit = append(s.retiredAudit, c.audit[:kept]...)
	s.retired.WarningsDropped += uint64(len(c.audit) - kept)
	c.audit = nil
	last := s.foldCoverageLocked(c)
	c.cov = nil
	c.warnMu.Unlock()
	s.mu.Unlock()
	if last {
		s.sweepIfSuperseded(c.ver)
	}

	sc := c.pooled
	sc.frames = c.frames[:0]
	sc.tempArena = c.tempArena[:0]
	sc.flagArena = c.flagArena[:0]
	sc.dmaLog = c.dmaLog[:0]
	c.pooled, c.frames, c.tempArena, c.flagArena, c.dmaLog = nil, nil, nil, nil, nil
	s.scratchPool.Put(sc)
}

// moveSession moves session c from its current version onto next at a
// round boundary, with m as its fresh coverage map for next. It runs on
// the session's goroutine.
func (s *Shared) moveSession(c *Checker, next *specVersion, m *coverage.Map) {
	next.sessions.Add(1)
	s.mu.Lock()
	c.warnMu.Lock()
	last := s.foldCoverageLocked(c)
	c.cov, c.covGen = m, next.gen
	c.warnMu.Unlock()
	s.mu.Unlock()
	if last {
		s.sweepIfSuperseded(c.ver)
	}
}

// foldCoverageLocked ends session c's tenure on its version c.ver: c no
// longer counts as running it, and c's coverage map folds into the
// engine's retired bank if the generation is still retained (another
// session runs it, or it is current) or is dropped otherwise. It
// reports whether c was the last session on the version. The caller
// holds s.mu and c.warnMu, so a concurrent aggregate sees c's counts
// exactly once, either in the map or in the bank; it has published the
// map's pending counts (adopt and Close publish first).
func (s *Shared) foldCoverageLocked(c *Checker) (last bool) {
	v := c.ver
	n := v.sessions.Add(-1)
	if c.cov != nil && (n > 0 || v == s.cur.Load()) {
		c.cov.AddTo(s.bankFor(v))
	}
	return n == 0
}

// sweepIfSuperseded releases the retired coverage of v when v is no
// longer the current generation. It is called after the last session
// left v, without any lock held. Publish prunes the same way during its
// grace walk, which covers a publication that lands after this check.
func (s *Shared) sweepIfSuperseded(v *specVersion) {
	if v == s.cur.Load() {
		return
	}
	s.mu.Lock()
	s.pruneLocked()
	s.mu.Unlock()
}

// pruneLocked drops the retired coverage banks whose generation is no
// longer retained. The caller holds s.mu.
func (s *Shared) pruneLocked() {
	cur := s.cur.Load()
	s.retiredCov = slices.DeleteFunc(s.retiredCov, func(r retiredCoverage) bool {
		return r.v != cur && r.v.sessions.Load() == 0
	})
}

// bankFor returns the retired coverage bank for v, adding an empty one
// if there is none. The caller holds s.mu.
func (s *Shared) bankFor(v *specVersion) *coverage.Snapshot {
	for i := range s.retiredCov {
		if s.retiredCov[i].v == v {
			return &s.retiredCov[i].snap
		}
	}
	s.retiredCov = append(s.retiredCov, retiredCoverage{v: v})
	return &s.retiredCov[len(s.retiredCov)-1].snap
}

// Sessions reports the number of open sessions.
func (s *Shared) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Stats aggregates counters across all sessions, open and retired. It
// may be called while sessions run: per-field sums are exact at the
// atomic loads, with cross-field skew bounded by in-flight rounds. A
// session closing concurrently is counted exactly once — mu orders the
// read against the fold, so its counters come either from its live bank
// or from the retired bank, never both and never neither.
func (s *Shared) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	agg := s.retired
	for _, c := range s.sessions {
		agg = agg.merge(c.stats.snapshot())
	}
	return agg
}

// Warnings copies every session's accumulated warnings, in Audit's
// order, one per audit record.
func (s *Shared) Warnings() []Anomaly {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := appendWarnings(nil, s.retiredAudit)
	for _, c := range s.sessions {
		c.warnMu.Lock()
		out = appendWarnings(out, c.audit)
		c.warnMu.Unlock()
	}
	return out
}

// Audit copies every session's accumulated audit records (the warning
// replays the enhancement pipeline feeds on): closed sessions' first, in
// close order, then open sessions' in open order. Within a session the
// records keep their round order; across concurrently-running sessions
// there is no global order to report. Like Stats, a session closing
// concurrently is read exactly once.
func (s *Shared) Audit() []AuditRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := slices.Clone(s.retiredAudit)
	for _, c := range s.sessions {
		c.warnMu.Lock()
		out = append(out, c.audit...)
		c.warnMu.Unlock()
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// ClearAudited discards the warnings an enhancement pass consumed, given
// as the copy Audit returned (ClearAudited(Audit()) clears all so far).
// Per session it drops the records up to the newest round consumed
// holds, in the retired buffer and the open session alike, so a warning
// raised after the Audit call stays for the next pass; sessions are told
// apart by ID. Dropped slots are zeroed, freeing their request copies.
func (s *Shared) ClearAudited(consumed []AuditRecord) {
	upTo := make(map[int]uint64)
	for _, r := range consumed {
		upTo[r.Session] = max(upTo[r.Session], r.Round)
	}
	used := func(r AuditRecord) bool {
		last, ok := upTo[r.Session]
		return ok && r.Round <= last
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retiredAudit = slices.DeleteFunc(s.retiredAudit, used)
	for _, c := range s.sessions {
		c.warnMu.Lock()
		c.audit = slices.DeleteFunc(c.audit, used)
		c.warnMu.Unlock()
	}
}

// CoverageSnapshots aggregates ES-CFG coverage across every session,
// open and retired, keyed by spec generation. Counter index spaces are
// per-generation (each sealing assigns its own block and edge slots), so
// cross-generation counts never mix. The engine keeps a generation's
// counts only while it is retained: the current generation is always
// reported, a superseded one only while an open session still runs it.
// Safe to call while sessions run: counters only grow, so a concurrent
// snapshot is a consistent lower bound; mu orders the read against a
// concurrent fold (a session closing or adopting a new generation), so a
// session's published counts are seen exactly once.
func (s *Shared) CoverageSnapshots() map[uint64]*coverage.Snapshot {
	return s.collectCoverage(0)
}

// collectCoverage merges the retired banks and open sessions' maps of
// generation gen, or of every retained generation when gen is 0.
func (s *Shared) collectCoverage(gen uint64) map[uint64]*coverage.Snapshot {
	out := make(map[uint64]*coverage.Snapshot)
	acc := func(g uint64) *coverage.Snapshot {
		a := out[g]
		if a == nil {
			a = &coverage.Snapshot{}
			out[g] = a
		}
		return a
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.retiredCov {
		r := &s.retiredCov[i]
		if gen == 0 || r.v.gen == gen {
			acc(r.v.gen).Merge(&r.snap)
		}
	}
	for _, c := range s.sessions {
		c.warnMu.Lock()
		if c.cov != nil && (gen == 0 || c.covGen == gen) {
			c.cov.AddTo(acc(c.covGen))
		}
		c.warnMu.Unlock()
	}
	return out
}

// CoverageProfile relates the current generation's aggregate coverage to
// its sealed structure and training baseline; nil when coverage is
// disabled.
func (s *Shared) CoverageProfile() *coverage.Profile {
	if s.cfg.covOff {
		return nil
	}
	v := s.cur.Load()
	return v.sealed.CoverageProfile(v.gen, s.collectCoverage(v.gen)[v.gen])
}

// Registry returns the observability registry the engine's sessions
// report into.
func (s *Shared) Registry() *obs.Registry { return s.cfg.obsReg }

// Metrics returns the engine's (tenant, device) row from the
// observability registry: one MetricsSnapshot aggregating every
// session's recorder, open and retired, as published (each open session
// trails by at most publishInterval rounds). Safe to call while sessions
// run.
func (s *Shared) Metrics() obs.MetricsSnapshot {
	return s.cfg.obsReg.Snapshot().Row(s.cfg.tenant, s.device)
}

// EngineStatus reports what only the engine knows — its session
// registry, current generation, swap count, dropped warnings and
// current-generation coverage — in the shape the fleet health
// aggregator consumes; round and anomaly counts come from the registry.
// Register it as a source with stream.Health.AddEngine(sh.EngineStatus);
// safe to call while sessions run.
func (s *Shared) EngineStatus() stream.EngineStatus {
	v := s.cur.Load()
	es := stream.EngineStatus{
		Device:     s.device,
		Tenant:     s.cfg.tenant,
		Generation: v.gen,
		Sessions:   s.Sessions(),
		Swaps:      s.swaps.Load(),

		WarningsDropped: s.Stats().WarningsDropped,
	}
	if !s.cfg.covOff {
		if snap := s.collectCoverage(v.gen)[v.gen]; snap != nil {
			cov := &stream.GenCoverage{
				Generation:  v.gen,
				TotalBlocks: v.sealed.NumBlocks(),
				TotalEdges:  v.sealed.NumEdges(),
			}
			for _, n := range snap.Blocks {
				if n != 0 {
					cov.BlocksCovered++
				}
			}
			for _, n := range snap.Edges {
				if n != 0 {
					cov.EdgesCovered++
				}
			}
			es.Coverage = cov
		}
	}
	return es
}
