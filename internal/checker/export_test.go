package checker

import "slices"

// Test-only accessors for internal state: command tracking for the
// shadow-resync tests, coverage retention for the retention tests.

// AccessSuppressed reports whether access-vector checks are currently
// suppressed (post-resync, until the next command-decision block).
func (c *Checker) AccessSuppressed() bool { return c.suppressAccess }

// CommandActive reports the active-command tracking state.
func (c *Checker) CommandActive() (bool, uint64) { return c.cmdActive, c.activeCmd }

// Sealed reports whether the checker runs the sealed fast path.
func (c *Checker) Sealed() bool { return c.sealed != nil }

// MergeStats exposes Stats.merge for the aggregation property tests.
func MergeStats(a, b Stats) Stats { return a.merge(b) }

// FastForward reports the threaded engine's loop fast-forward activity:
// attempts made and walker steps skipped, summed over the checker's life.
func (c *Checker) FastForward() (attempts, skippedSteps uint64) {
	return c.ffAttempts, c.ffSkippedSteps
}

// WithoutFastForward makes the threaded engine walk every loop step, so
// its coverage counts are a full walk's.
func WithoutFastForward() Option { return func(c *Checker) { c.ffOff = true } }

// RoundSteps is the last round's walker step count.
func (c *Checker) RoundSteps() int { return c.roundSteps }

// RetainedGens lists, in ascending order, the generations whose
// coverage some shard's retired bank still holds.
func (s *Shared) RetainedGens() []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, r := range sh.retiredCov {
			if !seen[r.v.gen] {
				seen[r.v.gen] = true
				out = append(out, r.v.gen)
			}
		}
		sh.mu.Unlock()
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
