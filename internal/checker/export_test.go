package checker

// Test-only accessors for internal command-tracking state, used by the
// shadow-resync tests.

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

// RoundSteps is the last round's walker step count.
func (c *Checker) RoundSteps() int { return c.roundSteps }
