package daemon

import "testing"

// TestDaemonCoverageRetentionBounded runs install / attach / detach /
// enhance / rollback cycles against one enhancement-mode engine while
// an idle session stays attached at the first generation. Every cycle
// publishes three generations; what the engine reports and keeps must
// stay within the current generation plus the generations its open
// sessions run. Idle sessions never run a round, so each one runs the
// generation that was current when it attached.
func TestDaemonCoverageRetentionBounded(t *testing.T) {
	const device = "fdc"
	d, _ := newWarmDaemon(t)
	defer d.Close()
	tn, learned := enhancementTenant(t, d, "alpha", device)
	eng, err := tn.engineFor(device)
	if err != nil {
		t.Fatal(err)
	}
	attachIdle := func() (*Session, uint64) {
		t.Helper()
		gen := eng.shared.Generation()
		ss, err := tn.Attach(AttachRequest{Device: device, Workload: "idle"})
		if err != nil {
			t.Fatal(err)
		}
		return ss[0], gen
	}
	long, longGen := attachIdle()
	var stay *Session
	var stayGen uint64

	const cycles = 30
	for i := 0; i < cycles; i++ {
		install(t, tn, InstallRequest{Device: device, Mode: "enhancement"}, true)
		next, nextGen := attachIdle()
		if stay != nil {
			if _, err := tn.Detach(stay.ID); err != nil {
				t.Fatal(err)
			}
		}
		stay, stayGen = next, nextGen
		enhance(t, tn, device, i > 0)
		rollback(t, tn, device, learned)

		held := map[uint64]bool{eng.shared.Generation(): true, longGen: true, stayGen: true}
		snaps := eng.shared.CoverageSnapshots()
		for gen := range snaps {
			if !held[gen] {
				t.Fatalf("cycle %d: engine reports coverage of generation %d; current %d, open sessions run %d and %d",
					i, gen, eng.shared.Generation(), longGen, stayGen)
			}
		}
		if len(snaps) > len(held) {
			t.Fatalf("cycle %d: %d generations reported, want at most %d", i, len(snaps), len(held))
		}
		if _, ok := snaps[longGen]; !ok {
			t.Fatalf("cycle %d: generation %d dropped while an open session runs it", i, longGen)
		}
	}
	if got, want := eng.shared.Generation(), uint64(1+3*cycles); got != want {
		t.Fatalf("generation = %d, want %d", got, want)
	}
	for _, s := range []*Session{long, stay} {
		if _, err := tn.Detach(s.ID); err != nil {
			t.Fatal(err)
		}
	}
	snaps := eng.shared.CoverageSnapshots()
	if _, ok := snaps[eng.shared.Generation()]; len(snaps) > 1 || (len(snaps) == 1 && !ok) {
		t.Errorf("no session open: engine reports %d generations, want at most the current %d",
			len(snaps), eng.shared.Generation())
	}
}
