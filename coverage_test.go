// Coverage-map acceptance tests: the ES-CFG coverage counters' overhead
// guard on the sealed path, the training-coverage contract on every
// detected CVE, the merge property across concurrent shared sessions,
// and drift reporting across an enhancement.
package sedspec_test

import (
	"fmt"
	"sync"
	"testing"

	"sedspec"
	"sedspec/internal/bench"
	"sedspec/internal/checker"
	"sedspec/internal/cvesim"
	"sedspec/internal/devices/testdev"
	"sedspec/internal/machine"
	"sedspec/internal/workload"
)

// TestCoverageOverheadGuard pins the coverage counters' price on the
// sealed check path: interleaved replay chunks with coverage on (the
// default) and off must stay within 5% (plus measurement slack) of each
// other, and the counters-on steady state must allocate nothing — the
// counters live in a preallocated per-generation arena.
func TestCoverageOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped with -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews the coverage on/off ratio")
	}
	target := workload.TargetByName("fdc", true)
	r, err := bench.NewCheckerReplay(target, 60)
	if err != nil {
		t.Fatal(err)
	}
	on := r.NewChecker()
	off := r.NewChecker(checker.WithCoverage(false))
	if on.Coverage() == nil || off.Coverage() != nil {
		t.Fatal("checker coverage wiring wrong")
	}

	warmReplay(t, r, on, off)
	ratio, nsOn, nsOff, minAllocs := overheadRatio(t, r, on, off)
	// The check path must allocate nothing in steady state. Judge the
	// minimum across windows: the runtime's own background activity
	// (scavenger timers, GC worker spawns) occasionally lands a malloc or
	// two inside a window, but an engine that allocates on the check
	// path shows it in every window.
	if minAllocs != 0 {
		t.Fatalf("steady-state chunks allocated %d times in every window", minAllocs)
	}
	t.Logf("sealed check: coverage on %.1f ns/op, off %.1f ns/op, ratio %.3f", nsOn, nsOff, ratio)
	// Budget: 5% contract plus 3% measurement slack for shared-runner
	// timing jitter at the ~10 ns scale being resolved.
	if ratio > 1.08 {
		t.Errorf("coverage counters cost %.1f%% on the sealed path, want <= 5%% (+slack)", 100*(ratio-1))
	}

	p := on.CoverageProfile()
	if p == nil || p.Rounds == 0 {
		t.Fatalf("coverage-on checker produced no runtime profile: %+v", p)
	}
	var edgeHits uint64
	for _, e := range p.Edges {
		edgeHits += e.Hits
	}
	if edgeHits == 0 {
		t.Error("no trained-edge hits after a benign replay")
	}
}

// TestCVETrainingCoverage replays every CVE proof of concept under
// protection and asserts the coverage map's core promise: the transition
// each blocked exploit needed is marked as never exercised by the
// training corpus (edge_trained false), while the run's own coverage
// profile proves benign traffic did exercise the spec.
func TestCVETrainingCoverage(t *testing.T) {
	for _, p := range cvesim.All() {
		p := p
		t.Run(p.CVE, func(t *testing.T) {
			outc, err := p.RunProtected()
			if err != nil {
				t.Fatal(err)
			}
			if !outc.Detected {
				if len(p.Expected) == 0 {
					t.Skip("documented false negative: nothing to audit")
				}
				t.Fatalf("PoC not detected")
			}
			cov := checker.TrainingCoverage(outc.Spec, outc.Anomaly)
			if cov.EdgeKind == "" {
				t.Fatalf("anomaly carries no edge kind: %+v", outc.Anomaly)
			}
			if cov.EdgeTrained {
				t.Errorf("blocked transition (%s, sel %#x) claims training coverage: %+v",
					cov.EdgeKind, cov.EdgeSel, cov)
			}
			prof := outc.Checker.CoverageProfile()
			if prof == nil || prof.Rounds == 0 {
				t.Fatalf("protected run produced no runtime coverage: %+v", prof)
			}
			hit := 0
			for _, b := range prof.Blocks {
				if b.Hits > 0 {
					hit++
				}
			}
			if hit == 0 {
				t.Error("no spec block shows runtime hits despite a replayed exploit")
			}
		})
	}
}

// TestCoverageMergeProperty drives four concurrent sessions through one
// shared engine and asserts the merge property the aggregate view is
// built on: the element-wise sum of the per-session snapshots equals the
// shared aggregate — while the sessions are live, and again after they
// close and fold into the retired bank. Run under -race this also proves
// the counters and the fold are data-race free.
func TestCoverageMergeProperty(t *testing.T) {
	_, latt := setup(t, testdev.Options{})
	spec := learn(t, latt).Spec
	sh := sedspec.NewSharedChecker(spec)

	const n = 4
	iters := 10
	if testing.Short() {
		iters = 2
	}
	p := machine.NewPool(n, lifecycleBuild)
	chks := make([]*checker.Checker, n)
	for i, s := range p.Sessions() {
		chks[i] = sedspec.ProtectShared(s.Attached(), sh)
	}
	var aggDuringRun *sedspec.CoverageProfile
	var once sync.Once
	err := p.Run(func(s *machine.Session) error {
		d := sedspec.NewDriver(s.Attached())
		for it := 0; it < iters; it++ {
			if err := benignTrain(d); err != nil {
				return fmt.Errorf("session %d iter %d: %w", s.ID(), it, err)
			}
			// Read the aggregate mid-run from a worker goroutine: under
			// -race this exercises snapshot-vs-count concurrency.
			once.Do(func() { aggDuringRun = sh.CoverageProfile() })
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if aggDuringRun == nil || len(aggDuringRun.Blocks) == 0 {
		t.Fatalf("mid-run aggregate profile empty: %+v", aggDuringRun)
	}

	gen := sh.Generation()
	sum := &sedspec.CoverageSnapshot{}
	for _, chk := range chks {
		s := chk.Coverage()
		if s == nil {
			t.Fatal("shared session has no coverage map")
		}
		sum.Merge(s)
	}
	agg := sh.CoverageSnapshots()[gen]
	if agg == nil {
		t.Fatalf("no aggregate snapshot for generation %d", gen)
	}
	assertSnapshotsEqual(t, "live sessions", sum, agg)

	// Closing the sessions folds their maps into the retired bank; the
	// aggregate must not change.
	for _, chk := range chks {
		chk.Close()
	}
	retired := sh.CoverageSnapshots()[gen]
	assertSnapshotsEqual(t, "after close", sum, retired)

	prof := sh.CoverageProfile()
	if prof == nil || prof.Generation != gen {
		t.Fatalf("aggregate profile missing: %+v", prof)
	}
	// Profiled rounds (entry-block hits) must equal the rounds the engine
	// actually checked — coverage never under- or over-counts.
	if want := sh.Stats().Rounds; prof.Rounds != want {
		t.Errorf("aggregate rounds = %d, want %d (engine-checked rounds)", prof.Rounds, want)
	}
}

func assertSnapshotsEqual(t *testing.T, when string, a, b *sedspec.CoverageSnapshot) {
	t.Helper()
	if len(a.Blocks) != len(b.Blocks) || len(a.Edges) != len(b.Edges) {
		t.Fatalf("%s: shape mismatch: %d/%d blocks, %d/%d edges",
			when, len(a.Blocks), len(b.Blocks), len(a.Edges), len(b.Edges))
	}
	for i := range a.Blocks {
		if a.Blocks[i] != b.Blocks[i] {
			t.Errorf("%s: block %d: sum %d != aggregate %d", when, i, a.Blocks[i], b.Blocks[i])
		}
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Errorf("%s: edge %d: sum %d != aggregate %d", when, i, a.Edges[i], b.Edges[i])
		}
	}
}

// TestEnhancementDriftReport runs the enhancement pipeline and asserts
// the drift report names exactly what the enhancement legalized: the
// audited diagnostic command and its new case edge out of the command
// decision block — and that, after an enforcement run that never issues
// the command, the runtime overlay flags that same edge as never hit.
func TestEnhancementDriftReport(t *testing.T) {
	_, att := setup(t, testdev.Options{})
	spec := learn(t, att).Spec

	sh := sedspec.NewSharedChecker(spec, checker.WithMode(checker.ModeEnhancement))
	sedspec.ProtectShared(att, sh)
	d := sedspec.NewDriver(att)
	if err := benignTrain(d); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Out8(testdev.PortCmd, testdev.CmdDiag); err != nil {
		t.Fatalf("enhancement mode blocked the diagnostic command: %v", err)
	}
	audit := sh.Audit()
	if len(audit) != 1 {
		t.Fatalf("audit records = %d, want 1", len(audit))
	}

	_, eatt := setup(t, testdev.Options{})
	enhanced, err := sedspec.Enhance(eatt, benignTrain, audit)
	if err != nil {
		t.Fatal(err)
	}

	// Structural drift, parent (gen 1) to enhanced (gen 2).
	parentProf := spec.Seal().CoverageProfile(1, nil)
	childProf := enhanced.Seal().CoverageProfile(2, nil)
	drift := sedspec.DiffCoverage(parentProf, childProf)

	foundCmd := false
	for _, c := range drift.CommandsAdded {
		if c == uint64(testdev.CmdDiag) {
			foundCmd = true
		}
	}
	if !foundCmd {
		t.Errorf("drift does not list the legalized command %#x: added %v",
			testdev.CmdDiag, drift.CommandsAdded)
	}
	var diagEdge *sedspec.CoverageEdge
	for i, e := range drift.EdgesAdded {
		if e.Kind == "case" && e.Sel == uint64(testdev.CmdDiag) {
			diagEdge = &drift.EdgesAdded[i]
		}
	}
	if diagEdge == nil {
		t.Fatalf("drift does not list the legalized case edge for %#x: added %+v",
			testdev.CmdDiag, drift.EdgesAdded)
	}
	if len(drift.BlocksRemoved) != 0 {
		t.Errorf("enhancement should only add structure, removed %+v", drift.BlocksRemoved)
	}

	// Runtime overlay: enforce the enhanced spec over benign-only traffic
	// (never the diagnostic command) — the drift report must flag the
	// legalized edge as never hit at runtime.
	_, patt := setup(t, testdev.Options{})
	chk := sedspec.Protect(patt, enhanced)
	if err := benignTrain(sedspec.NewDriver(patt)); err != nil {
		t.Fatal(err)
	}
	runProf := chk.CoverageProfile()
	if runProf == nil || runProf.Rounds == 0 {
		t.Fatalf("no runtime profile: %+v", runProf)
	}
	runProf.Generation = 2
	overlay := sedspec.DiffCoverage(parentProf, runProf)
	flagged := false
	for _, e := range overlay.NeverHitEdges {
		if e.Kind == "case" && e.Sel == uint64(testdev.CmdDiag) {
			flagged = true
		}
	}
	if !flagged {
		t.Errorf("runtime drift does not flag the unexercised legalized edge: %+v",
			overlay.NeverHitEdges)
	}
}
