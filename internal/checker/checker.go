// Package checker implements ES-Checker, SEDSpec's runtime-protection
// proxy (paper §VI). For every I/O interaction it simulates the device's
// execution specification on a shadow device state before the emulated
// device runs, applying three check strategies:
//
//   - the parameter check (integer overflow via flag bits at typed stores,
//     buffer overflow via index bounds on device-state buffers),
//   - the indirect-jump check (function-pointer call targets must be
//     legitimate ES-CFG blocks learned in training), and
//   - the conditional-jump check (branch arms and commands never traversed
//     in training are anomalies).
//
// In protection mode any anomaly blocks the I/O and halts the machine; in
// enhancement mode only parameter-check anomalies block, while the other
// strategies raise warnings and let execution continue.
package checker

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"sedspec/internal/core"
	"sedspec/internal/interp"
	"sedspec/internal/ir"
	"sedspec/internal/machine"
	"sedspec/internal/obs"
	"sedspec/internal/obs/coverage"
	"sedspec/internal/obs/stream"
	"sedspec/internal/simclock"
)

// Strategy identifies a check strategy.
type Strategy uint8

const (
	// StrategyParameter is the parameter check.
	StrategyParameter Strategy = iota + 1
	// StrategyIndirectJump is the indirect jump check.
	StrategyIndirectJump
	// StrategyConditionalJump is the conditional jump check.
	StrategyConditionalJump
)

func (s Strategy) String() string {
	switch s {
	case StrategyParameter:
		return "parameter-check"
	case StrategyIndirectJump:
		return "indirect-jump-check"
	case StrategyConditionalJump:
		return "conditional-jump-check"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// Mode selects the working mode (paper §VI-B).
type Mode uint8

const (
	// ModeProtection halts the machine on any anomaly.
	ModeProtection Mode = iota + 1
	// ModeEnhancement halts only on parameter-check anomalies and warns
	// on the rest.
	ModeEnhancement
)

func (m Mode) String() string {
	switch m {
	case ModeProtection:
		return "protection"
	case ModeEnhancement:
		return "enhancement"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Severity grades anomalies for alert classification (paper §VIII:
// "classify the alert levels based on different check strategies").
type Severity uint8

const (
	// SeverityCritical marks anomalies directly tied to exploitation
	// (parameter check): never false positives per the paper.
	SeverityCritical Severity = iota + 1
	// SeverityHigh marks control-flow hijack indicators (indirect jump
	// check).
	SeverityHigh
	// SeverityWarning marks irregular-operation indicators (conditional
	// jump check), which may be rare-command false positives.
	SeverityWarning
)

func (s Severity) String() string {
	switch s {
	case SeverityCritical:
		return "critical"
	case SeverityHigh:
		return "high"
	case SeverityWarning:
		return "warning"
	default:
		return fmt.Sprintf("Severity(%d)", uint8(s))
	}
}

// Anomaly describes one detected specification violation.
type Anomaly struct {
	Strategy Strategy
	Device   string
	Block    ir.BlockRef
	Src      ir.SourceRef
	Detail   string
	Round    uint64
	// Session is the guest-session ID of the checker that raised the
	// anomaly, so multi-session logs stay unambiguous; -1 only from the
	// Reference oracle, which has no session.
	Session int
	// SpecGen is the spec-version generation that checked the round (1
	// before any hot-swap). Under a Shared engine with live swaps it names
	// the version that actually raised the anomaly, which can lag
	// Shared.Generation during a swap's grace period.
	SpecGen uint64
	// Ctx is the forensic flight-recorder context frozen when the
	// anomaly blocked the I/O: the last events of the session's check
	// stream, the final one being the blocked I/O itself. Nil for
	// non-blocking (warning) anomalies and when recording is disabled.
	Ctx *obs.AnomalyContext
	// EdgeKind classifies the untrained transition behind the anomaly for
	// coverage reports: "branch-taken", "branch-not-taken", "command",
	// "switch", "successor", "indirect", "access", or "parameter". EdgeSel
	// carries the observed selector, command, or jump target when the kind
	// has one. Both engines stamp these identically; the differential
	// anomaly identity deliberately excludes them.
	EdgeKind string
	EdgeSel  uint64
}

// tagEdge annotates an anomaly with the untrained transition that raised
// it. Nil-safe: condOrStop returns nil when the conditional-jump strategy
// is disabled.
func tagEdge(a *Anomaly, kind string, sel uint64) *Anomaly {
	if a != nil {
		a.EdgeKind, a.EdgeSel = kind, sel
	}
	return a
}

// Severity grades the anomaly by its strategy.
func (a *Anomaly) Severity() Severity {
	switch a.Strategy {
	case StrategyParameter:
		return SeverityCritical
	case StrategyIndirectJump:
		return SeverityHigh
	default:
		return SeverityWarning
	}
}

// Error implements error. The device name and round counter are always
// included, and the session ID whenever there is one (every Checker has
// one; the Reference oracle does not), so interleaved multi-session logs
// stay attributable.
func (a *Anomaly) Error() string {
	if a.Session >= 0 {
		return fmt.Sprintf("sedspec: %s anomaly in %s session %d round %d at %s: %s",
			a.Strategy, a.Device, a.Session, a.Round, a.Src, a.Detail)
	}
	return fmt.Sprintf("sedspec: %s anomaly in %s round %d at %s: %s",
		a.Strategy, a.Device, a.Round, a.Src, a.Detail)
}

// Stats counts checker activity. All counters are uint64: round counts are
// unbounded over a deployment's lifetime, and Anomaly.Round is stamped
// straight from Rounds without conversion.
type Stats struct {
	Rounds             uint64
	ParamAnomalies     uint64
	IndirectAnomalies  uint64
	CondAnomalies      uint64
	Blocked            uint64
	Warnings           uint64
	Resyncs            uint64
	StepsSimulated     uint64
	SyncPointsResolved uint64
	// WarningsDropped counts warned rounds whose audit record was not kept
	// because a pending buffer held MaxPendingWarnings records already
	// (see finishRound and Close).
	WarningsDropped uint64
}

// merge returns the field-wise sum of two snapshots; Shared.Stats uses it
// to aggregate per-session counters.
func (s Stats) merge(o Stats) Stats {
	return Stats{
		Rounds:             s.Rounds + o.Rounds,
		ParamAnomalies:     s.ParamAnomalies + o.ParamAnomalies,
		IndirectAnomalies:  s.IndirectAnomalies + o.IndirectAnomalies,
		CondAnomalies:      s.CondAnomalies + o.CondAnomalies,
		Blocked:            s.Blocked + o.Blocked,
		Warnings:           s.Warnings + o.Warnings,
		Resyncs:            s.Resyncs + o.Resyncs,
		StepsSimulated:     s.StepsSimulated + o.StepsSimulated,
		SyncPointsResolved: s.SyncPointsResolved + o.SyncPointsResolved,
		WarningsDropped:    s.WarningsDropped + o.WarningsDropped,
	}
}

// statCounters is the checker's internal counter bank. Each counter has a
// single writer — the goroutine driving the session — but is written with
// atomics so Shared.Stats can aggregate live across sessions without a
// lock on the check path. An uncontended atomic add on a cache line owned
// by the writing core costs a few nanoseconds against rounds measured in
// hundreds, so a session pays nothing observable for this.
type statCounters struct {
	rounds             atomic.Uint64
	paramAnomalies     atomic.Uint64
	indirectAnomalies  atomic.Uint64
	condAnomalies      atomic.Uint64
	blocked            atomic.Uint64
	warnings           atomic.Uint64
	resyncs            atomic.Uint64
	stepsSimulated     atomic.Uint64
	syncPointsResolved atomic.Uint64
	warningsDropped    atomic.Uint64
}

// snapshot loads a coherent-enough view of the counters: each field is
// read atomically; cross-field skew is bounded by in-flight rounds.
func (s *statCounters) snapshot() Stats {
	return Stats{
		Rounds:             s.rounds.Load(),
		ParamAnomalies:     s.paramAnomalies.Load(),
		IndirectAnomalies:  s.indirectAnomalies.Load(),
		CondAnomalies:      s.condAnomalies.Load(),
		Blocked:            s.blocked.Load(),
		Warnings:           s.warnings.Load(),
		Resyncs:            s.resyncs.Load(),
		StepsSimulated:     s.stepsSimulated.Load(),
		SyncPointsResolved: s.syncPointsResolved.Load(),
		WarningsDropped:    s.warningsDropped.Load(),
	}
}

// Checker is the ES-Checker proxy, the production check engine. It
// implements machine.Interposer (and the PostInterposer extension). Every
// Checker is a session of a Shared engine: New builds a private engine
// with one session, and for N parallel guest sessions one Shared engine
// gives each its own Checker via Shared.NewSession. One Checker is driven
// by one goroutine at a time, like the per-device dispatch path it
// guards; sibling sessions run concurrently against one immutable sealed
// spec, with no lock on the check path.
type Checker struct {
	sim
	// sealed is the dense runtime form the simulation runs against, and
	// tprog its threaded-code stream with handlers bound.
	sealed *core.SealedSpec
	tprog  *threadedProg
	// cmdAccess is the active command's access vector in sealed,
	// resolved at the command decision and again when an adoption
	// rebinds sealed mid-command.
	cmdAccess core.Bitset
	// Threaded-engine round state: the in-flight request, batched step
	// total, parked anomaly, and the current frame's temp/flag banks
	// (cached off the frame so op handlers skip a frame load).
	treq   *interp.Request
	tsteps int
	tanom  *Anomaly
	ttemps []uint64
	tflags []interp.Flags
	// stepGate is the step total the threaded terminators compare
	// against: budget/ffGateDiv at round start, raised to budget once the
	// round crosses it. tpark holds the resume pc while fastForward runs
	// (fastforward.go). ff is its scratch, allocated on a session's first
	// attempt; ffAttempts and ffSkippedSteps count attempts and the walker
	// steps skipped.
	stepGate       int
	tpark          int32
	ff             *ffScratch
	ffAttempts     uint64
	ffSkippedSteps uint64
	// warnMu guards audit, and cov and ver for readers on other
	// goroutines. It is taken only on the warning-append path (anomalous
	// rounds), at swap adoption and by readers; the steady-state check
	// path never touches it. audit holds one record per kept warning;
	// Warnings is a view of it.
	warnMu sync.Mutex
	audit  []AuditRecord

	// shared is the engine whose sealed spec this checker shares and
	// whose aggregate this session's counters roll up into. pooled is the
	// recycled scratch backing frames/arenas, returned to the engine's
	// pool by Close.
	shared *Shared
	pooled *scratch

	// ver is the adopted spec version (written under warnMu, see
	// Shared.moveSession); specGen is its generation, stamped into events
	// and anomalies. epoch is the RCU round marker: odd while
	// the checker is inside PreIO, even between rounds. Swap's grace
	// period waits on it; the checker's own goroutine is the only writer.
	ver     *specVersion
	specGen uint64
	epoch   atomic.Uint64

	// closed makes Close idempotent.
	closed bool
	// roundSteps is the last round's walker step count, captured for the
	// round's event.
	roundSteps int
	// cov is the session's one ES-CFG coverage map, sized for the
	// adopted sealed generation's block and edge tables; nil when
	// disabled (WithCoverage(false)). Adopting a new generation drops the
	// old map (Shared.moveSession) and starts a fresh one, so a session
	// holds one map however many swaps it lives through.
	cov *coverage.Map
	// entryRef is the entry block's reference, stamped into clean-round
	// events.
	entryRef ir.BlockRef

	// tempArena/flagArena back the frame banks: one flat bump allocation
	// per arena, so a push is an arena extension plus a memclr and nested
	// frames' banks sit adjacent in cache.
	tempArena []uint64
	flagArena []interp.Flags

	// dmaLog journals guest-memory writes the simulation suppresses
	// (descriptor writebacks), overlaid on subsequent reads within the
	// same round so loops that terminate via writeback terminate in the
	// simulation too. It never reaches real guest memory. The journal is
	// append-only and scanned linearly on overlay — a round writes back at
	// most a few descriptor words, where a scan beats hashing.
	dmaLog []dmaWrite
	// dmaLo/dmaHi bound the address range the journal covers, so reads
	// outside it — the common case in a schedule walk, where most reads
	// touch descriptors not yet written back — skip the overlay scan on
	// one compare. Valid only while len(dmaLog) > 0; set fresh by the
	// first append after a truncation.
	dmaLo, dmaHi uint64
	// entryTemps is the temp-bank size of the entry block's handler,
	// resolved once at construction for the per-round entry push.
	entryTemps int
	// noClear is set when the sealed program passed the
	// definitely-assigned temp analysis: frame pushes skip zeroing the
	// temp and flag banks because no path can read another round's
	// residue (core.SealedSpec.TempsDefinitelyAssigned).
	noClear bool
	// batching is true while PreIOBatch drives the engine: per-round
	// arena resets, DMA journal truncation and Stats publication are
	// lifted to the batch boundary.
	batching bool
	// unpublished counts the checked rounds since the last publish, on
	// the PreIO and PreIOBatch paths alike.
	unpublished int
	// batchSteps accumulates clean rounds' step counts within a batch so
	// stepsSimulated is published once per batch instead of per round.
	batchSteps uint64
	// verdicts is PreIOBatch's reusable result buffer.
	verdicts []machine.Verdict
}

// dmaWrite is one suppressed guest-memory write in the sealed engine's
// journal — the whole word a single OpDMAWrite produced, not a byte, so
// a journal entry costs one append and one overlap test however wide
// the write was. Overlay scans apply entries in append order, so a
// later write to the same range wins, matching the map's last-write
// semantics.
type dmaWrite struct {
	addr uint64
	val  [8]byte
	n    uint8
}

// journalDMAWrite records one suppressed guest write in the DMA
// journal. A write whose range exactly re-covers an earlier entry —
// the dominant pattern in ring sweeps, where every round rewrites the
// same descriptor status words — updates that entry in place, so a
// batch's journal stays bounded by the number of distinct writeback
// targets instead of growing per round. The in-place update is sound
// exactly when no later journal entry partially overlaps the range:
// the backward scan stops at the first (most recent) overlapping
// entry, so an exact match found there is the range's latest value and
// overwriting it preserves last-write-wins order.
func (c *Checker) journalDMAWrite(addr uint64, val uint64, n uint8) {
	if len(c.dmaLog) == 0 {
		c.dmaLo, c.dmaHi = addr, addr+uint64(n)
	} else {
		if addr < c.dmaLo {
			c.dmaLo = addr
		}
		if end := addr + uint64(n); end > c.dmaHi {
			c.dmaHi = end
		}
	}
	for j := len(c.dmaLog) - 1; j >= 0; j-- {
		w := &c.dmaLog[j]
		if addr < w.addr+uint64(w.n) && w.addr < addr+uint64(n) {
			if w.addr == addr && w.n == n {
				binary.LittleEndian.PutUint64(w.val[:], val)
				return
			}
			break
		}
	}
	w := dmaWrite{addr: addr, n: n}
	binary.LittleEndian.PutUint64(w.val[:], val)
	c.dmaLog = append(c.dmaLog, w)
}

// overlay copies the bytes of w that fall inside [addr, addr+n) into
// buf (which aliases that range).
func (w *dmaWrite) overlay(buf []byte, addr uint64, n int) {
	lo, hi := w.addr, w.addr+uint64(w.n)
	if lo < addr {
		lo = addr
	}
	if end := addr + uint64(n); hi > end {
		hi = end
	}
	for a := lo; a < hi; a++ {
		buf[a-addr] = w.val[a-w.addr]
	}
}

// config is the check configuration every Option writes. A Checker, a
// Shared engine and a Reference each hold one; a Shared engine's sessions
// start from a copy of the engine's.
type config struct {
	mode Mode
	// enabled strategies, indexed by Strategy (all on by default). An
	// array rather than a map: it is consulted on the simulation's hot
	// path.
	enabled [4]bool
	budget  int
	// accessControl gates the command access table check (ablation
	// switch; on by default).
	accessControl bool
	env           interp.Env
	haltFn        func()

	// rec is the flight recorder fed one event per checked I/O; nil only
	// when recording was explicitly disabled with WithRecorder(nil).
	// recSet records that WithRecorder was applied; without it the checker
	// auto-creates a recorder registered with obsReg (nil selects
	// obs.Default()). clock supplies event timestamps in simclock ticks
	// (nil reads as tick zero, e.g. in detached replay benchmarks).
	rec    *obs.Recorder
	recSet bool
	obsReg *obs.Registry
	clock  *simclock.Clock
	// sessionID is the guest-session identity stamped into events and
	// anomalies; -1 until Shared.NewSession auto-assigns it.
	sessionID int
	covOff    bool
	// hub is the telemetry hub lifecycle and anomaly events publish
	// into (stream.Default() unless WithStream redirected or disabled
	// it). Only the rare paths touch it — blocked anomalies, warnings,
	// attach/detach — never a clean check round. hubSet records that
	// WithStream was applied, including WithStream(nil) to disable
	// publication.
	hub    *stream.Hub
	hubSet bool
	// tenant is the control-plane namespace stamped onto every published
	// event (empty for single-tenant CLI runs).
	tenant string
	// ffOff (set only by tests) makes the threaded engine walk every step
	// instead of fast-forwarding loops: the full-walk oracle for
	// fast-forward's coverage counts, which the reference engine does not
	// keep.
	ffOff bool
}

// newConfig returns the construction defaults with opts applied.
func newConfig(opts []Option) config {
	cfg := config{
		mode:          ModeProtection,
		budget:        1 << 20,
		enabled:       [4]bool{false, true, true, true},
		accessControl: true,
		sessionID:     -1,
	}
	cfg.apply(opts)
	return cfg
}

// apply runs opts over the configuration and restores the one default an
// option may clear: a nil environment reads as interp.NopEnv.
func (cfg *config) apply(opts []Option) {
	for _, o := range opts {
		o(cfg)
	}
	if cfg.env == nil {
		cfg.env = interp.NopEnv()
	}
}

// Option configures a Checker, a Shared engine (and through it its
// sessions) or a Reference.
type Option func(*config)

// WithMode sets the working mode (default protection).
func WithMode(m Mode) Option { return func(c *config) { c.mode = m } }

// WithStrategies enables only the listed strategies (default: all three).
func WithStrategies(ss ...Strategy) Option {
	return func(c *config) {
		c.enabled = [4]bool{}
		for _, s := range ss {
			c.enabled[s] = true
		}
	}
}

// WithHalt sets the halt hook invoked on blocking anomalies (typically
// machine.Halt).
func WithHalt(fn func()) Option { return func(c *config) { c.haltFn = fn } }

// WithEnv provides machine services for sync points and read-only DMA
// (typically the device's machine attachment).
func WithEnv(env interp.Env) Option { return func(c *config) { c.env = env } }

// WithAccessControl toggles the command access table check (default on;
// the ablation turns it off).
func WithAccessControl(on bool) Option {
	return func(c *config) { c.accessControl = on }
}

// WithBudget bounds simulated steps per round (default 1<<20).
func WithBudget(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.budget = n
		}
	}
}

// WithRecorder installs an explicit flight recorder, overriding the
// auto-created one. WithRecorder(nil) disables recording entirely (the
// overhead-guard baseline; production keeps the recorder on).
func WithRecorder(rec *obs.Recorder) Option {
	return func(c *config) { c.rec, c.recSet = rec, true }
}

// WithObs selects the metrics registry the checker's auto-created
// recorder registers with (default obs.Default()).
func WithObs(reg *obs.Registry) Option {
	return func(c *config) { c.obsReg = reg }
}

// WithSessionID stamps the guest-session identity into events and
// anomalies (the facade wires the attachment's session ID).
func WithSessionID(id int) Option {
	return func(c *config) {
		if id >= 0 {
			c.sessionID = id
		}
	}
}

// WithClock supplies the virtual clock whose ticks timestamp recorded
// events (typically the hosting machine's).
func WithClock(clk *simclock.Clock) Option {
	return func(c *config) { c.clock = clk }
}

// WithCoverage toggles the ES-CFG coverage counters (default on; the
// overhead-guard baseline and ablations turn them off). The Reference
// oracle never counts.
func WithCoverage(on bool) Option {
	return func(c *config) { c.covOff = !on }
}

// WithStream selects the telemetry hub the checker publishes anomaly
// and lifecycle events into (default stream.Default()). WithStream(nil)
// disables publication entirely.
func WithStream(h *stream.Hub) Option {
	return func(c *config) { c.hub, c.hubSet = h, true }
}

// WithTenant stamps a control-plane tenant name onto every event the
// checker (or a Shared engine templated from it) publishes, so a
// daemon's anomaly tail attributes each record to the namespace that
// owns the session. Empty (the default) means single-tenant.
func WithTenant(name string) Option {
	return func(c *config) { c.tenant = name }
}

// New builds a checker for a specification: the one session of a
// private Shared engine. initial is the device control structure at
// deployment time, cloned into the shadow device state. The
// specification is compiled (sealed and lowered to its threaded stream)
// here, at deployment: later mutation of spec does not affect the
// checker.
func New(spec *core.Spec, initial *interp.State, opts ...Option) *Checker {
	return NewShared(spec, opts...).NewSession(initial, opts...)
}

// bind points the checker at a compiled spec: the sealed tables, the
// threaded stream, the entry material every round needs, and the active
// command's access vector under the new tables.
func (c *Checker) bind(cv *Compiled) {
	c.sealed = cv.sealed
	c.cmdAccess = cv.sealed.CmdAccess(c.activeCmd)
	c.tprog = cv.tprog
	c.prog = cv.prog
	c.entryTemps = cv.entryTemps
	c.entryRef = cv.entryRef
	c.noClear = cv.sealed.TempsDefinitelyAssigned()
}

// Warnings returns a copy of the anomalies raised in enhancement mode
// without blocking, one per kept audit record. Returning a copy keeps
// callers from mutating checker state through the slice.
func (c *Checker) Warnings() []Anomaly {
	c.warnMu.Lock()
	defer c.warnMu.Unlock()
	return appendWarnings(nil, c.audit)
}

// ClearWarnings discards the accumulated warnings and their audit
// records (between experiments, or after an enhancement pass consumed
// them), keeping the slice's capacity so later rounds do not re-allocate;
// the slots are zeroed, so the records' request copies are freed.
func (c *Checker) ClearWarnings() {
	c.warnMu.Lock()
	clear(c.audit)
	c.audit = c.audit[:0]
	c.warnMu.Unlock()
}

// AuditRecord is one non-blocking warning together with the I/O request
// behind it — everything the enhancement pipeline needs to replay the
// round against a fresh training pass. Data is a private copy of the
// request payload.
type AuditRecord struct {
	Anomaly
	Space interp.Space
	Addr  uint64
	Write bool
	Data  []byte
}

// Audit returns a copy of the audit records accumulated on the warning
// path (enhancement mode).
func (c *Checker) Audit() []AuditRecord {
	c.warnMu.Lock()
	defer c.warnMu.Unlock()
	if len(c.audit) == 0 {
		return nil
	}
	out := make([]AuditRecord, len(c.audit))
	copy(out, c.audit)
	return out
}

// appendWarnings appends the anomaly of each record to dst; nil when
// both are empty.
func appendWarnings(dst []Anomaly, recs []AuditRecord) []Anomaly {
	for i := range recs {
		dst = append(dst, recs[i].Anomaly)
	}
	return dst
}

// SpecGen returns the generation of the spec version the checker last
// checked against (1 before any hot-swap).
func (c *Checker) SpecGen() uint64 { return c.specGen }

var (
	_ machine.Interposer     = (*Checker)(nil)
	_ machine.PostInterposer = (*Checker)(nil)
)

// PreIO implements machine.Interposer: simulate the specification for the
// request before the device consumes it. Every round feeds one compact
// event to the flight recorder; a blocking anomaly additionally freezes
// the recorder's tail into the anomaly's forensic context, with the
// blocked I/O itself as the final event.
//
// The round is bracketed by the RCU epoch marker (odd while checking)
// and begins by adopting the engine's current spec version, so a
// hot-swap takes effect exactly at a round boundary: this round runs
// entirely against one version, and Swap's grace period waits for the
// epoch to advance before retiring the old one.
func (c *Checker) PreIO(_ machine.Device, req *interp.Request) error {
	c.epoch.Add(1)
	defer c.epoch.Add(1)
	if v := c.shared.cur.Load(); v != c.ver {
		c.adopt(v)
	}
	round := c.stats.rounds.Add(1)
	req.Rewind()
	anomaly := c.simulateThreaded(req)
	req.Rewind()
	err := c.finishRound(req, round, anomaly)
	c.endRound()
	return err
}

// publishInterval is the session's publication cadence in checked
// rounds. Large enough to amortize the pending-cell walks and the atomic
// adds to well under a nanosecond per round, small enough that live
// aggregate readers stay fresh.
const publishInterval = 64

// endRound ticks the session's round counter and publishes every
// publishInterval rounds.
func (c *Checker) endRound() {
	c.unpublished++
	if c.unpublished >= publishInterval {
		c.publish()
	}
}

// publish folds the session's pending recorder cells and coverage counts
// into their atomic banks, which the registry and the shared engine's
// aggregates read. Besides the endRound cadence it runs before an
// anomaly round is accounted, on adopting a new generation, on Close and
// in the owner-side reads Coverage and Snapshot; so an aggregate lags a
// live session by at most publishInterval rounds and is exact after any
// of those. Owner goroutine (or a quiesced session) only.
func (c *Checker) publish() {
	c.unpublished = 0
	if c.rec != nil {
		c.rec.Publish()
	}
	if c.cov != nil {
		c.cov.Flush()
	}
}

// freezeDepth is how many trailing flight-recorder events a blocking
// anomaly freezes into its AnomalyContext (capped by the ring).
const freezeDepth = 32

// finishRound runs the post-simulation half of a check round: event
// recording, anomaly stamping and accounting, blocking or warning. It
// returns the anomaly when it blocks in the current mode, nil
// otherwise. PreIO and PreIOBatch share it so a batched round is
// observable exactly like a per-round one.
func (c *Checker) finishRound(req *interp.Request, round uint64, anomaly *Anomaly) error {
	if anomaly == nil {
		if c.rec != nil {
			c.record(req, round, Strategy(obs.StrategyNone), obs.VerdictOK, c.entryRef)
		}
		return nil
	}
	c.publish()
	anomaly.Session = c.sessionID
	if c.settle(anomaly, c.shared.device, round, c.specGen) {
		if c.rec != nil {
			c.record(req, round, anomaly.Strategy, obs.VerdictBlocked, anomaly.Block)
			anomaly.Ctx = c.rec.Freeze(freezeDepth)
		}
		c.hub.Publish(stream.Event{
			Kind:    stream.KindAnomaly,
			Tenant:  c.tenant,
			Device:  c.shared.device,
			Session: c.sessionID,
			SpecGen: c.specGen,
			Anomaly: &stream.AnomalyInfo{
				Strategy: anomaly.Strategy.String(),
				Severity: anomaly.Severity().String(),
				Detail:   anomaly.Detail,
				Round:    round,
				Addr:     req.Addr,
				Write:    req.Write,
				Len:      len(req.Data),
				EdgeKind: anomaly.EdgeKind,
				EdgeSel:  anomaly.EdgeSel,
				Ctx:      anomaly.Ctx,
			},
		})
		// In a batch the halt is deferred onto the verdict (PreIOBatch),
		// so the batch's clean prefix still reaches the device first.
		if c.haltFn != nil && !c.batching {
			c.haltFn()
		}
		return anomaly
	}
	if c.rec != nil {
		c.record(req, round, anomaly.Strategy, obs.VerdictWarned, anomaly.Block)
	}
	c.hub.Publish(stream.Event{
		Kind:    stream.KindAudit,
		Tenant:  c.tenant,
		Device:  c.shared.device,
		Session: c.sessionID,
		SpecGen: c.specGen,
		Audit: &stream.AuditInfo{
			Strategy: anomaly.Strategy.String(),
			Detail:   anomaly.Detail,
			Round:    round,
			Addr:     req.Addr,
			Write:    req.Write,
			Len:      len(req.Data),
		},
	})
	c.warnMu.Lock()
	if len(c.audit) < MaxPendingWarnings {
		c.audit = append(c.audit, AuditRecord{
			Anomaly: *anomaly,
			Space:   req.Space,
			Addr:    req.Addr,
			Write:   req.Write,
			Data:    append([]byte(nil), req.Data...),
		})
	} else {
		c.stats.warningsDropped.Add(1)
	}
	c.warnMu.Unlock()
	c.needResync = true
	return nil
}

// MaxPendingWarnings bounds the audit records one session keeps, and
// those one shared engine keeps from its closed sessions, until
// ClearAudited or ClearWarnings consumes them. Each warned round of an
// enhancement-mode guest would otherwise grow the daemon's heap by a
// copy of the request; past the bound the earliest records are kept and
// later ones are only counted (Stats.WarningsDropped).
const MaxPendingWarnings = 1024

// adopt switches the checker onto a newly published spec version at a
// round boundary. Shadow state, command tracking, and scratch survive:
// compatiblePrograms guarantees the replacement presents the same runtime
// shape.
func (c *Checker) adopt(v *specVersion) {
	// Fresh counters for the new generation: its sealed block and edge
	// slots are a new index space.
	c.publish()
	var m *coverage.Map
	if !c.covOff {
		m = coverage.NewMap(v.sealed.NumBlocks(), v.sealed.NumEdges())
	}
	c.shared.moveSession(c, v, m)
	c.specGen = v.gen
	c.bind(v.Compiled)
}

// Coverage returns a snapshot of the coverage counters for the spec
// generation the checker currently enforces, or nil when coverage is
// disabled. It publishes the session's pending counts first, so it must
// be called from the goroutine driving the session or after the session
// quiesced; for a live cross-goroutine view use the shared engine's
// Coverage, which reads only the published banks.
func (c *Checker) Coverage() *coverage.Snapshot {
	if c.cov == nil {
		return nil
	}
	c.publish()
	return c.cov.Snapshot()
}

// CoverageProfile relates the checker's runtime coverage to the sealed
// structure and training baseline of its current generation; nil when
// coverage is disabled.
func (c *Checker) CoverageProfile() *coverage.Profile {
	snap := c.Coverage()
	if snap == nil {
		return nil
	}
	return c.sealed.CoverageProfile(c.specGen, snap)
}

// record feeds one check event to the flight recorder. Timestamps are
// virtual (simclock ticks, one per microsecond): the checker's own cost
// never advances the clock, so a replay stamps the same ticks — unlike
// wall time.
func (c *Checker) record(req *interp.Request, round uint64, strat Strategy, v obs.Verdict, blk ir.BlockRef) {
	var tick int64
	if c.clock != nil {
		tick = c.clock.Now().Microseconds()
	}
	ev := c.rec.Append(tick)
	ev.Round = round
	ev.Addr = req.Addr
	ev.Steps = uint32(c.roundSteps)
	ev.Handler = uint16(blk.Handler)
	ev.Block = uint16(blk.Block)
	ev.Len = uint16(len(req.Data))
	ev.Kind = obs.KindOf(uint8(req.Space), req.Write)
	ev.SpecGen = uint16(c.specGen)
	ev.Strategy = uint8(strat)
	ev.Verdict = v
	c.rec.Count(ev.Steps, ev.Strategy, v)
}

// Recorder exposes the checker's flight recorder (nil when disabled).
func (c *Checker) Recorder() *obs.Recorder { return c.rec }

// Snapshot reads this checker's own observability metrics: round counts
// by strategy and verdict plus the steps histogram. Like
// Coverage it publishes the session's pending counts first, so it is
// exact but must be called from the goroutine driving the session or
// after the session quiesced; the registry is the live cross-goroutine
// view.
func (c *Checker) Snapshot() obs.MetricsSnapshot {
	if c.rec == nil {
		return obs.MetricsSnapshot{Tenant: c.shared.cfg.tenant, Device: c.shared.device}
	}
	c.publish()
	return c.rec.Snapshot()
}
