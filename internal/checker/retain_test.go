package checker_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sedspec"
	"sedspec/internal/checker"
	"sedspec/internal/core"
	"sedspec/internal/devices/testdev"
	"sedspec/internal/machine"
	"sedspec/internal/obs/coverage"
)

// Retention: what a shared engine keeps must depend on what is live,
// not on how many publications it has seen. Coverage is kept for the
// current generation only, in one retired bank plus one map per open
// session; pending warnings stop at MaxPendingWarnings; a compiled
// version holds no learned spec.

// attachSession opens a session of sh on a fresh test-device machine.
func attachSession(t *testing.T, sh *checker.Shared) (*checker.Checker, *sedspec.Driver) {
	t.Helper()
	m := machine.New()
	att := m.Attach(testdev.New(testdev.Options{}), machine.WithPIO(testdev.PortCmd, testdev.PortCount))
	c := sh.NewSession(att.Dev().State(), checker.WithEnv(att), checker.WithHalt(func() {}))
	att.AddInterposer(c)
	return c, sedspec.NewDriver(att)
}

// oneRound drives one checked, benign I/O.
func oneRound(t *testing.T, d *sedspec.Driver) {
	t.Helper()
	if _, err := d.Out8(testdev.PortCmd, testdev.CmdStatus); err != nil {
		t.Fatal(err)
	}
}

// checkRetention asserts the one-bank rule. The engine's retired
// coverage is one bank, and while it is tagged with the current
// generation it counts exactly the sessions that closed running that
// generation (closed; nil when none did); a bank tagged with an older
// generation reads as empty. The engine's coverage is that bank plus the
// open sessions that run the current generation, so no superseded
// generation's counts reach it, and it is nil exactly when both are
// empty. It publishes the open sessions' counts, so it runs on their
// goroutine.
func checkRetention(t *testing.T, when string, sh *checker.Shared, open []*checker.Checker, closed *coverage.Snapshot) {
	t.Helper()
	gen := sh.Generation()
	var want *coverage.Snapshot
	if closed != nil {
		want = closed.Clone()
	}
	for _, c := range open {
		if c.SpecGen() == gen {
			if want == nil {
				want = &coverage.Snapshot{}
			}
			want.Merge(c.Coverage())
		}
	}
	unlock := sh.LockEngine()
	st := sh.EngineState()
	unlock()
	switch {
	case st.RetiredGen > gen:
		t.Fatalf("%s: retired bank tagged generation %d, ahead of the current %d", when, st.RetiredGen, gen)
	case st.RetiredGen == gen && !sameCounts(&st.RetiredCov, closed):
		t.Fatalf("%s: retired bank of generation %d = %+v, want the closed sessions' %+v", when, gen, st.RetiredCov, closed)
	case st.RetiredGen != gen && closed != nil:
		t.Fatalf("%s: retired bank tagged generation %d lost the closed sessions of generation %d", when, st.RetiredGen, gen)
	}
	if got := sh.Coverage(); !sameCounts(got, want) {
		t.Fatalf("%s: engine coverage of generation %d = %+v, want %+v", when, gen, got, want)
	}
	if es := sh.EngineStatus(); (es.Coverage == nil) != (want == nil) {
		t.Fatalf("%s: EngineStatus coverage %+v, want nil %t", when, es.Coverage, want == nil)
	}
}

// retentionLog closes sessions of sh and keeps, per generation, the
// counts of the sessions that closed while running it.
type retentionLog struct {
	sh     *checker.Shared
	closed map[uint64]*coverage.Snapshot
}

func (l *retentionLog) close(c *checker.Checker) {
	if gen := c.SpecGen(); gen == l.sh.Generation() {
		if l.closed[gen] == nil {
			l.closed[gen] = &coverage.Snapshot{}
		}
		l.closed[gen].Merge(c.Coverage())
	}
	c.Close()
}

func (l *retentionLog) check(t *testing.T, when string, open ...*checker.Checker) {
	t.Helper()
	checkRetention(t, when, l.sh, open, l.closed[l.sh.Generation()])
}

// TestCoverageRetentionBounded runs 200 publication cycles. Each cycle
// opens sessions, runs rounds, and closes some of them one cycle later,
// so closing sessions often run a superseded generation; one session
// stays open throughout and runs a round only every third cycle, so it
// lags behind the current generation.
func TestCoverageRetentionBounded(t *testing.T) {
	_, att := setup(t)
	spec := learn(t, att)
	alt := checker.Compile(spec)
	first := checker.Compile(spec)
	sh := checker.NewSharedCompiled(first)
	ledger := &retentionLog{sh: sh, closed: make(map[uint64]*coverage.Snapshot)}

	long, longDrv := attachSession(t, sh)
	oneRound(t, longDrv)
	var pending *checker.Checker // opened last cycle, closed this cycle
	for cycle := 0; cycle < 200; cycle++ {
		cv := first
		if cycle%2 == 0 {
			cv = alt
		}
		if err := sh.Publish(cv); err != nil {
			t.Fatal(err)
		}
		if cycle%3 == 0 {
			oneRound(t, longDrv)
		}
		stay, stayDrv := attachSession(t, sh)
		oneRound(t, stayDrv)
		brief, briefDrv := attachSession(t, sh)
		oneRound(t, briefDrv)
		ledger.close(brief)
		if pending != nil {
			ledger.close(pending)
		}
		pending = stay
		ledger.check(t, fmt.Sprintf("cycle %d", cycle), long, pending)
	}
	if got := sh.Generation(); got != 201 {
		t.Fatalf("generation = %d, want 201", got)
	}
	ledger.close(pending)
	ledger.close(long)
	ledger.check(t, "no session open")
}

// TestCoverageExactAcrossAdoption pins the current generation's counts
// across close and adoption while a reader polls the engine: a close on
// the current generation moves a session's counts into the retired bank
// exactly once, an adoption starts the new generation from the adopting
// session's fresh map, and neither the adoption nor a later close of a
// session still on the superseded generation adds that generation's
// counts to the current one.
func TestCoverageExactAcrossAdoption(t *testing.T) {
	_, att := setup(t)
	spec := learn(t, att)
	sh := checker.NewShared(spec)

	// While stable holds an expectation, every read must return it; the
	// test clears stable before a step that may change what a read sees.
	type expectation struct{ cov *coverage.Snapshot }
	var stable atomic.Pointer[expectation]
	expect := func(cov *coverage.Snapshot) {
		t.Helper()
		stable.Store(&expectation{cov})
		if got := sh.Coverage(); !sameCounts(got, cov) {
			t.Fatalf("generation %d coverage = %+v, want %+v", sh.Generation(), got, cov)
		}
	}
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			want := stable.Load()
			got := sh.Coverage()
			if want != nil && stable.Load() == want && !sameCounts(got, want.cov) {
				t.Errorf("concurrent read = %+v, want %+v", got, want.cov)
				return
			}
			runtime.Gosched()
		}
	}()
	defer func() { close(stop); reader.Wait() }()

	a, aDrv := attachSession(t, sh)
	b, bDrv := attachSession(t, sh)
	c, cDrv := attachSession(t, sh)
	for _, d := range []*sedspec.Driver{aDrv, bDrv, cDrv} {
		if err := benign(d); err != nil {
			t.Fatal(err)
		}
	}
	oneRound(t, aDrv) // the three sessions' counts differ
	gen1 := &coverage.Snapshot{}
	for _, s := range []*checker.Checker{a, b, c} {
		gen1.Merge(s.Coverage())
	}
	expect(gen1)
	c.Close() // c's published counts move from its map to the bank
	expect(gen1)

	stable.Store(nil)
	if err := sh.Swap(spec); err != nil {
		t.Fatal(err)
	}
	expect(nil) // a and b still run generation 1: nothing counts generation 2

	stable.Store(nil)
	oneRound(t, aDrv) // a adopts generation 2 and drops its generation-1 map
	gen2 := a.Coverage().Clone()
	if gen2.Blocks[sh.Sealed().Entry] != 1 {
		t.Fatalf("a's generation-2 map = %+v, want its one round", gen2)
	}
	expect(gen2)
	b.Close() // the last session on generation 1: its counts are dropped
	expect(gen2)

	d, dDrv := attachSession(t, sh)
	oneRound(t, dDrv)
	stable.Store(nil)
	both := gen2.Clone()
	both.Merge(d.Coverage())
	expect(both)
	d.Close() // the bank, last tagged generation 1, restarts at generation 2
	a.Close()
	expect(both)

	unlock := sh.LockEngine()
	st := sh.EngineState()
	unlock()
	if st.RetiredGen != 2 || !sameCounts(&st.RetiredCov, both) {
		t.Errorf("retired bank: generation %d, %+v; want generation 2, %+v", st.RetiredGen, st.RetiredCov, both)
	}
	if p := sh.Sealed().CoverageProfile(sh.Generation(), sh.Coverage()); p.Generation != 2 || p.Rounds != 2 {
		t.Errorf("current-generation profile = %+v, want generation 2 with 2 rounds", p)
	}
}

// TestCompiledHoldsNoSpec: once the caller drops the spec it compiled,
// the spec is garbage while the compiled version lives on, so an engine
// or a daemon memo holding only compiled versions keeps no learned spec.
func TestCompiledHoldsNoSpec(t *testing.T) {
	freed, cv := compileDropped(t)
	if !collected(freed) {
		t.Error("the learned spec is still reachable from its compiled version")
	}
	// The compiled version still enforces on its own.
	sh := checker.NewSharedCompiled(cv)
	c, d := attachSession(t, sh)
	defer c.Close()
	if err := benign(d); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(cv)
}

// compileDropped learns and compiles a spec and returns the compiled
// version with a channel that is closed once the spec is collected; no
// strong reference to the spec outlives the call.
func compileDropped(t *testing.T) (<-chan struct{}, *checker.Compiled) {
	_, att := setup(t)
	spec := learn(t, att)
	freed := make(chan struct{})
	runtime.SetFinalizer(spec, func(*core.Spec) { close(freed) })
	return freed, checker.Compile(spec)
}

// collected runs the collector until freed is closed, for up to a
// second; it reports whether the object was collected.
func collected(freed <-chan struct{}) bool {
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-freed:
			return true
		case <-time.After(10 * time.Millisecond):
		}
	}
	return false
}

func sameCounts(a, b *coverage.Snapshot) bool {
	if a == nil || b == nil {
		return a == b
	}
	return fmt.Sprint(a.Blocks, a.Edges) == fmt.Sprint(b.Blocks, b.Edges)
}

// TestPendingWarningsCapped drives one enhancement-mode session through
// MaxPendingWarnings+100 warned rounds: it keeps the earliest
// MaxPendingWarnings records and counts the other 100 as dropped. The
// engine applies the same bound to what closed sessions leave behind.
func TestPendingWarningsCapped(t *testing.T) {
	_, att := setup(t)
	spec := learn(t, att)
	sh := checker.NewShared(spec, checker.WithMode(checker.ModeEnhancement))

	warn := func(d *sedspec.Driver, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := d.Out8(testdev.PortCmd, testdev.CmdDiag); err != nil {
				t.Fatal(err)
			}
		}
	}
	const over = 100
	c, d := attachSession(t, sh)
	warn(d, checker.MaxPendingWarnings+over)
	st := c.Stats()
	if st.Warnings != checker.MaxPendingWarnings+over || st.WarningsDropped != over {
		t.Fatalf("session stats: %d warnings, %d dropped; want %d, %d",
			st.Warnings, st.WarningsDropped, checker.MaxPendingWarnings+over, over)
	}
	ws, audit := c.Warnings(), c.Audit()
	if len(ws) != checker.MaxPendingWarnings || len(audit) != checker.MaxPendingWarnings {
		t.Fatalf("session keeps %d warnings, %d audit records; want %d each",
			len(ws), len(audit), checker.MaxPendingWarnings)
	}
	for i := 1; i < len(audit); i++ {
		if audit[i].Round <= audit[i-1].Round || ws[i].Round != audit[i].Round {
			t.Fatalf("records out of capture order at %d: audit rounds %d, %d; warning round %d",
				i, audit[i-1].Round, audit[i].Round, ws[i].Round)
		}
	}
	if first := audit[0].Round; first != 1 {
		t.Errorf("first kept record is round %d, want the earliest warned round 1", first)
	}

	c.Close()
	if got := len(sh.Warnings()); got != checker.MaxPendingWarnings {
		t.Errorf("engine keeps %d warnings after close, want %d", got, checker.MaxPendingWarnings)
	}
	c2, d2 := attachSession(t, sh)
	warn(d2, 10)
	c2.Close() // the engine's buffers are full: all ten are dropped
	st = sh.Stats()
	if st.WarningsDropped != over+10 {
		t.Errorf("engine dropped = %d, want %d", st.WarningsDropped, over+10)
	}
	if got := len(sh.Audit()); got != checker.MaxPendingWarnings {
		t.Errorf("engine keeps %d audit records, want %d", got, checker.MaxPendingWarnings)
	}
	if es := sh.EngineStatus(); es.WarningsDropped != over+10 {
		t.Errorf("EngineStatus.WarningsDropped = %d, want %d", es.WarningsDropped, over+10)
	}

	// Consuming the records makes room again.
	sh.ClearAudited(sh.Audit())
	c3, d3 := attachSession(t, sh)
	warn(d3, 3)
	c3.Close()
	if got := len(sh.Audit()); got != 3 {
		t.Errorf("audit after clear = %d records, want 3", got)
	}
}

// TestClearAuditedKeepsLaterWarnings pins the enhance's clear: it drops
// the records an Audit copy holds and keeps every warning raised after
// that copy was taken, in open sessions and in what closed sessions
// left behind alike.
func TestClearAuditedKeepsLaterWarnings(t *testing.T) {
	_, att := setup(t)
	spec := learn(t, att)
	sh := checker.NewShared(spec, checker.WithMode(checker.ModeEnhancement))
	warn := func(d *sedspec.Driver) {
		t.Helper()
		if _, err := d.Out8(testdev.PortCmd, testdev.CmdDiag); err != nil {
			t.Fatal(err)
		}
	}

	open, openDrv := attachSession(t, sh)
	defer open.Close()
	warn(openDrv)
	closedEarly, earlyDrv := attachSession(t, sh)
	warn(earlyDrv)
	closedEarly.Close()
	closedLate, lateDrv := attachSession(t, sh)
	warn(lateDrv)

	openID, lateID := open.Warnings()[0].Session, closedLate.Warnings()[0].Session
	consumed := sh.Audit()
	if len(consumed) != 3 {
		t.Fatalf("audit holds %d records, want 3", len(consumed))
	}
	warn(openDrv)
	warn(lateDrv)
	closedLate.Close()
	sh.ClearAudited(consumed)

	left := sh.Audit()
	if len(left) != 2 {
		t.Fatalf("after the clear the audit holds %d records, want the 2 raised after Audit: %+v", len(left), left)
	}
	for _, r := range left {
		if r.Round != 2 || (r.Session != openID && r.Session != lateID) {
			t.Errorf("kept session %d round %d, want round 2 of sessions %d and %d",
				r.Session, r.Round, openID, lateID)
		}
	}
	sh.ClearAudited(left)
	if n := len(sh.Warnings()); n != 0 {
		t.Errorf("%d warnings left after every record was consumed", n)
	}
}
