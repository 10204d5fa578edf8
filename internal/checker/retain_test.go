package checker_test

import (
	"fmt"
	"runtime"
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
// current generation and for generations open sessions still run; a
// session holds one coverage map; pending warnings stop at
// MaxPendingWarnings; a compiled version holds no learned spec.

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

// checkRetention asserts the retention bound against the open sessions:
// the engine reports and keeps coverage for at most the current
// generation plus the generations open sessions run, each open session
// holds exactly one map, and that map counts the session's generation.
func checkRetention(t *testing.T, when string, sh *checker.Shared, open []*checker.Checker) {
	t.Helper()
	held := map[uint64]bool{sh.Generation(): true}
	for _, c := range open {
		gen, ok := c.CoverageMapGen()
		if !ok {
			t.Fatalf("%s: open session holds no coverage map", when)
		}
		if gen != c.SpecGen() {
			t.Fatalf("%s: session map counts generation %d, session runs %d", when, gen, c.SpecGen())
		}
		held[gen] = true
	}
	for _, g := range sh.RetainedGens() {
		if !held[g] {
			t.Fatalf("%s: retired bank keeps generation %d; current %d, open sessions run %v",
				when, g, sh.Generation(), held)
		}
	}
	for g := range sh.CoverageSnapshots() {
		if !held[g] {
			t.Fatalf("%s: CoverageSnapshots reports generation %d; current %d, open sessions run %v",
				when, g, sh.Generation(), held)
		}
	}
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

	long, longDrv := attachSession(t, sh)
	oneRound(t, longDrv)
	var pending []*checker.Checker // opened last cycle, closed this cycle
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
		brief.Close()
		for _, c := range pending {
			c.Close()
		}
		pending = []*checker.Checker{stay}
		checkRetention(t, fmt.Sprintf("cycle %d", cycle), sh, append([]*checker.Checker{long}, pending...))
	}
	if got := sh.Generation(); got != 201 {
		t.Fatalf("generation = %d, want 201", got)
	}
	for _, c := range pending {
		c.Close()
	}
	long.Close()
	if got := sh.RetainedGens(); len(got) > 1 || (len(got) == 1 && got[0] != sh.Generation()) {
		t.Errorf("no session open: retired banks keep %v, want at most the current generation %d", got, sh.Generation())
	}
}

// TestCoverageExactAcrossAdoption pins the fold a session makes when it
// adopts a new generation: its old map's counts reach the engine's
// retired bank exactly once while another session still runs that
// generation, and the generation disappears once the last one leaves.
func TestCoverageExactAcrossAdoption(t *testing.T) {
	_, att := setup(t)
	spec := learn(t, att)
	sh := checker.NewShared(spec)

	a, aDrv := attachSession(t, sh)
	b, bDrv := attachSession(t, sh)
	c, cDrv := attachSession(t, sh)
	for _, d := range []*sedspec.Driver{aDrv, bDrv, cDrv} {
		if err := benign(d); err != nil {
			t.Fatal(err)
		}
	}
	oneRound(t, aDrv) // the three sessions' counts differ
	want := &coverage.Snapshot{}
	for _, s := range []*checker.Checker{a, b, c} {
		want.Merge(s.Coverage())
	}
	c.Close() // gen 1 is current: c's counts fold into the retired bank

	if err := sh.Swap(spec); err != nil {
		t.Fatal(err)
	}
	// a and b still run generation 1, so the retired counts of c stay.
	if got := sh.CoverageSnapshots()[1]; !sameCounts(got, want) {
		t.Fatalf("gen 1 after publish = %+v, want %+v", got, want)
	}

	oneRound(t, aDrv) // a adopts generation 2 and folds its gen-1 map
	if gen, ok := a.CoverageMapGen(); !ok || gen != 2 {
		t.Fatalf("a's map after adoption: gen %d, present %v", gen, ok)
	}
	if got := sh.CoverageSnapshots()[1]; !sameCounts(got, want) {
		t.Fatalf("gen 1 after a adopted = %+v, want %+v (lost or folded twice)", got, want)
	}
	wantNew := a.Coverage() // publishes a's pending counts
	if got := sh.CoverageSnapshots()[2]; !sameCounts(got, wantNew) {
		t.Fatalf("gen 2 = %+v, want a's new map %+v", got, wantNew)
	}
	if p := sh.CoverageProfile(); p == nil || p.Generation != 2 || p.Rounds != 1 {
		t.Fatalf("current-generation profile = %+v, want generation 2 with 1 round", p)
	}

	b.Close() // the last session on generation 1
	if _, ok := sh.CoverageSnapshots()[1]; ok {
		t.Errorf("generation 1 still reported after its last session closed")
	}
	if got := sh.RetainedGens(); len(got) != 0 {
		t.Errorf("retired banks = %v, want none (a still holds its gen-2 map)", got)
	}
	a.Close()
	if got := sh.RetainedGens(); len(got) != 1 || got[0] != 2 {
		t.Errorf("retired banks after a closed = %v, want [2]", got)
	}
	if got := sh.CoverageSnapshots()[2]; got == nil || got.Blocks[sh.Sealed().Entry] != 1 {
		t.Errorf("gen 2 after close = %+v, want a's one round", got)
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
