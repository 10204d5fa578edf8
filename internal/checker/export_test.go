package checker

import (
	"slices"

	"sedspec/internal/obs/coverage"
)

// Test-only accessors for internal state: command tracking for the
// shadow-resync tests (on both engines), coverage retention for the
// retention tests, the engine's own fields and locks for the sharing
// test.

// AccessSuppressed reports whether access-vector checks are currently
// suppressed (post-resync, until the next command-decision block).
func (s *sim) AccessSuppressed() bool { return s.suppressAccess }

// CommandActive reports the active-command tracking state.
func (s *sim) CommandActive() (bool, uint64) { return s.cmdActive, s.activeCmd }

// MergeStats exposes Stats.merge for the aggregation property tests.
func MergeStats(a, b Stats) Stats { return a.merge(b) }

// FastForward reports the threaded engine's loop fast-forward activity:
// attempts made and walker steps skipped, summed over the checker's life.
func (c *Checker) FastForward() (attempts, skippedSteps uint64) {
	return c.ffAttempts, c.ffSkippedSteps
}

// WithoutFastForward makes the threaded engine walk every loop step, so
// its coverage counts are a full walk's.
func WithoutFastForward() Option { return func(c *config) { c.ffOff = true } }

// RoundSteps is the last round's walker step count.
func (c *Checker) RoundSteps() int { return c.roundSteps }

// RoundSteps is the last round's walker step count.
func (r *Reference) RoundSteps() int { return r.steps }

// RetainedGens lists, in ascending order, the generations whose
// coverage the retired bank still holds.
func (s *Shared) RetainedGens() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []uint64
	for _, r := range s.retiredCov {
		out = append(out, r.v.gen)
	}
	slices.Sort(out)
	return out
}

// CoverageMapGen reports the generation of the one coverage map the
// session holds, and false when it holds none.
func (c *Checker) CoverageMapGen() (uint64, bool) {
	c.warnMu.Lock()
	defer c.warnMu.Unlock()
	return c.covGen, c.cov != nil
}

// PublishInterval is the sessions' publication cadence in rounds.
const PublishInterval = publishInterval

// LockEngine takes every lock a round could contend on: the engine's
// swapMu and mu, then each open session's warnMu, in the engine's lock
// order. It returns the matching unlock.
func (s *Shared) LockEngine() (unlock func()) {
	s.swapMu.Lock()
	s.mu.Lock()
	for _, c := range s.sessions {
		c.warnMu.Lock()
	}
	return func() {
		for _, c := range s.sessions {
			c.warnMu.Unlock()
		}
		s.mu.Unlock()
		s.swapMu.Unlock()
	}
}

// EngineState is a deep copy of the fields a Shared owns, as opposed to
// those each session owns.
type EngineState struct {
	Sessions     []*Checker
	NextSession  int
	Retired      Stats
	RetiredCov   map[uint64]coverage.Snapshot
	RetiredAudit []AuditRecord
	Swaps        uint64
	Cur          *specVersion
	// CurSessions is Cur's count of sessions running it.
	CurSessions int64
}

// EngineState copies the engine-owned fields. The caller holds the locks
// LockEngine takes.
func (s *Shared) EngineState() EngineState {
	st := EngineState{
		Sessions:     slices.Clone(s.sessions),
		NextSession:  s.nextSession,
		Retired:      s.retired,
		RetiredCov:   make(map[uint64]coverage.Snapshot),
		RetiredAudit: slices.Clone(s.retiredAudit),
		Swaps:        s.swaps.Load(),
		Cur:          s.cur.Load(),
	}
	st.CurSessions = st.Cur.sessions.Load()
	for _, r := range s.retiredCov {
		st.RetiredCov[r.v.gen] = coverage.Snapshot{
			Blocks: slices.Clone(r.snap.Blocks),
			Edges:  slices.Clone(r.snap.Edges),
		}
	}
	return st
}
