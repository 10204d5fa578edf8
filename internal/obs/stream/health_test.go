package stream

import (
	"reflect"
	"testing"

	"sedspec/internal/obs"
)

// feed counts n rounds into a fresh recorder on reg, with fixed steps
// so the quantile assertions are deterministic, plus one blocked and one
// warned anomaly, and publishes them.
func feed(reg *obs.Registry, device string, n int) {
	r := reg.NewRecorder("", device, 0, 0)
	for i := 0; i < n; i++ {
		r.Count(16, obs.StrategyNone, obs.VerdictOK)
	}
	r.Count(16, 1, obs.VerdictBlocked)
	r.Count(16, 2, obs.VerdictWarned)
	r.Publish()
}

// TestHealthSnapshotFolds: a snapshot folds registry rows into device
// rollups with blocked/warned split out, quantiles from the histograms,
// and engine-source sessions/generation/coverage merged in. The fold
// keeps no state between reads: a second snapshot with no traffic in
// between returns the same rows.
func TestHealthSnapshotFolds(t *testing.T) {
	reg := obs.NewRegistry()
	feed(reg, "fdc", 500)
	hub := NewHub()
	h := NewHealth(reg, hub)
	h.AddEngine(func() EngineStatus {
		return EngineStatus{
			Device:     "fdc",
			Generation: 3,
			Sessions:   2,
			Swaps:      2,
			Coverage:   &GenCoverage{Generation: 3, BlocksCovered: 10, TotalBlocks: 20, EdgesCovered: 5, TotalEdges: 9},

			WarningsDropped: 7,
		}
	})
	h.AddEngine(func() EngineStatus {
		return EngineStatus{Device: "ehci", Sessions: 1, Generation: 1}
	})

	snap := h.Snapshot()
	if len(snap.Devices) != 2 {
		t.Fatalf("devices = %d, want 2 (fdc + engine-only ehci)", len(snap.Devices))
	}
	if snap.Sessions != 3 {
		t.Errorf("fleet sessions = %d, want 3", snap.Sessions)
	}
	if snap.Build.GoVersion == "" {
		t.Error("snapshot missing build identity")
	}

	d := snap.Device("fdc")
	if d == nil {
		t.Fatal("no fdc row")
	}
	if d.Rounds != 502 || d.Anomalies != 2 || d.Blocked != 1 || d.Warned != 1 {
		t.Errorf("rollup %+v", d)
	}
	if d.Sessions != 2 || d.Generation != 3 || d.WarningsDropped != 7 || d.Swaps != 2 {
		t.Errorf("engine merge: sessions %d gen %d warnings dropped %d swaps %d", d.Sessions, d.Generation, d.WarningsDropped, d.Swaps)
	}
	if d.Coverage == nil || d.Coverage.BlocksCovered != 10 {
		t.Errorf("coverage not merged: %+v", d.Coverage)
	}
	// Steps were constant 16, bucket [16,32): the quantile estimate must
	// land inside the bucket — the documented factor-<2 bound.
	if d.StepsP50 < 16 || d.StepsP50 >= 32 || d.StepsP99 < 16 || d.StepsP99 >= 32 {
		t.Errorf("steps quantiles p50=%v p99=%v outside [16,32)", d.StepsP50, d.StepsP99)
	}
	if snap.Device("ehci") == nil {
		t.Error("engine-only device missing from fleet")
	}
	if again := h.Snapshot(); !reflect.DeepEqual(again.Devices, snap.Devices) {
		t.Errorf("second read with no traffic changed the rows:\n%+v\n%+v", snap.Devices, again.Devices)
	}
}

// TestBuildInfo: the resolved build identity is stable and carries the
// toolchain version.
func TestBuildInfo(t *testing.T) {
	b := Build()
	if b.GoVersion == "" {
		t.Error("no go version in build info")
	}
	if b != Build() {
		t.Error("Build() not stable across calls")
	}
}
