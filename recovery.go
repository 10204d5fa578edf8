package sedspec

import (
	"sedspec/internal/checker"
	"sedspec/internal/core"
	"sedspec/internal/interp"
	"sedspec/internal/machine"
)

// RollbackGuard implements the anomaly-handling extension the paper's
// discussion sketches (§VIII): instead of leaving the machine halted after
// a blocking anomaly, roll it back to a clean snapshot taken before the
// exploitation attempt and keep serving the tenant.
//
// The guard keeps a rolling snapshot refreshed every SnapshotEvery clean
// I/O rounds. When the checker blocks, the guard restores the snapshot,
// resynchronizes the checker's shadow state, and clears the halt — the
// offending request is dropped, everything before the snapshot survives.
type RollbackGuard struct {
	m   *machine.Machine
	att *machine.Attached
	chk *checker.Checker

	// SnapshotEvery is the clean-round interval between snapshots.
	SnapshotEvery int

	clean int
	snap  *machine.Snapshot

	// Recoveries counts successful rollbacks.
	Recoveries int
}

var _ machine.PostInterposer = (*RollbackGuard)(nil)

// PreIO implements machine.Interposer as a no-op (snapshotting happens
// after clean rounds).
func (g *RollbackGuard) PreIO(machine.Device, *interp.Request) error { return nil }

// PostIO refreshes the rolling snapshot after clean rounds.
func (g *RollbackGuard) PostIO(machine.Device, *interp.Request, *interp.Result) {
	g.clean++
	if g.clean >= g.SnapshotEvery {
		g.snap = g.m.Snapshot()
		g.clean = 0
	}
}

// recover rolls back to the last snapshot. Invoked as the checker's halt
// hook, so it runs at the moment a blocking anomaly fires.
func (g *RollbackGuard) recover() {
	if g.snap == nil {
		// Nothing to roll back to: fall back to a halt.
		g.m.Halt()
		return
	}
	if err := g.m.Restore(g.snap); err != nil {
		g.m.Halt()
		return
	}
	g.chk.ResyncShadow(g.att.Dev().State())
	g.Recoveries++
}

// ProtectWithRollback is Protect plus rollback recovery: the returned
// guard snapshots the machine every snapshotEvery clean rounds, and a
// blocking anomaly restores the snapshot instead of leaving the machine
// halted. The blocked request still surfaces as an error to its issuer.
func ProtectWithRollback(att *machine.Attached, spec *core.Spec, snapshotEvery int, opts ...checker.Option) (*checker.Checker, *RollbackGuard) {
	return ProtectSharedWithRollback(att, NewSharedChecker(spec, opts...), snapshotEvery, opts...)
}

// ProtectSharedWithRollback is ProtectShared plus rollback recovery: the
// session checker is drawn from the shared engine (so it participates in
// hot-swaps and aggregate accounting), and a blocking anomaly restores
// the machine's rolling snapshot instead of leaving it halted. When a
// swap's grace period overlaps an exploit, the rollback runs against
// whatever spec version actually checked the round — the anomaly's
// SpecGen names it.
func ProtectSharedWithRollback(att *machine.Attached, sh *SharedChecker, snapshotEvery int, opts ...checker.Option) (*checker.Checker, *RollbackGuard) {
	if snapshotEvery <= 0 {
		snapshotEvery = 64
	}
	g := &RollbackGuard{
		m:             att.Machine(),
		att:           att,
		SnapshotEvery: snapshotEvery,
	}
	base := []checker.Option{
		checker.WithEnv(att),
		checker.WithHalt(g.recover),
		checker.WithClock(att.Machine().Clock),
		checker.WithSessionID(att.SessionID()),
	}
	chk := sh.NewSession(att.Dev().State(), append(base, opts...)...)
	g.chk = chk
	att.AddInterposer(chk)
	att.AddInterposer(g)
	// Seed the first snapshot from the current (clean) state.
	g.snap = g.m.Snapshot()
	return chk, g
}
