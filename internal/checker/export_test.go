package checker

import "slices"

// Test-only accessors for internal state: command tracking for the
// shadow-resync tests (on both engines), coverage retention for the
// retention tests.

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
