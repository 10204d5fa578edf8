package sedspec_test

import (
	"slices"
	"sort"
	"testing"

	"sedspec/internal/bench"
	"sedspec/internal/checker"
)

// Overhead guards compare two checkers over the same captured replay:
// one with a feature on, one with it off.
const (
	// guardChunk is the rounds per timed chunk.
	guardChunk = 10_000
	// guardPairs is the number of back-to-back on/off chunk pairs.
	guardPairs = 64
	// guardAllocPairs is the number of consecutive pairs whose
	// allocations are judged together: 8 windows of 160k rounds (80k per
	// side). Short timing chunks would each be a chance for an
	// allocating path to slip through with a zero count.
	guardAllocPairs = 8
)

// warmReplay runs two full replay cycles through each checker, growing
// frame and temp stacks to steady state before any chunk is timed.
func warmReplay(t *testing.T, r *bench.CheckerReplay, chks ...*checker.Checker) {
	t.Helper()
	for _, chk := range chks {
		for i := 0; i < 2*len(r.Reqs); i++ {
			if err := r.Step(chk, i); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// overheadRatio times guardPairs back-to-back chunk pairs of the on and
// off checkers, alternating which side runs first, and returns the
// median of the per-pair on/off time ratios with each side's median
// ns/op. Pairing short chunks makes scheduler and frequency noise hit
// both sides alike, alternating the order cancels any first-runner
// bias, and the median drops the pairs a preemption landed in.
// minAllocs is the fewest heap allocations, on and off sides together,
// in any one window of guardAllocPairs pairs: background runtime
// activity can land a stray malloc in a window, but a check path that
// allocates does so in every window.
func overheadRatio(t *testing.T, r *bench.CheckerReplay, on, off *checker.Checker) (ratio, nsOn, nsOff float64, minAllocs uint64) {
	t.Helper()
	windows := make([]uint64, guardPairs/guardAllocPairs)
	var i int
	timeOf := func(chk *checker.Checker) float64 {
		t.Helper()
		elapsed, allocs, err := r.TimeChunk(chk, 0, guardChunk)
		if err != nil {
			t.Fatal(err)
		}
		windows[i/guardAllocPairs] += allocs
		return float64(elapsed) / guardChunk
	}
	ratios := make([]float64, guardPairs)
	ons := make([]float64, guardPairs)
	offs := make([]float64, guardPairs)
	for i = range ratios {
		if i%2 == 0 {
			ons[i] = timeOf(on)
			offs[i] = timeOf(off)
		} else {
			offs[i] = timeOf(off)
			ons[i] = timeOf(on)
		}
		ratios[i] = ons[i] / offs[i]
	}
	return median(ratios), median(ons), median(offs), slices.Min(windows)
}

// median sorts xs in place and returns its middle element.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}
