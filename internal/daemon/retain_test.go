package daemon

import (
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"sedspec"
	"sedspec/internal/cvesim"
	"sedspec/internal/obs"
	"sedspec/internal/obs/journal"
	"sedspec/internal/obs/stream"
)

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

// TestEnhanceKeepsLaterWarnings pins what an enhance clears: the audit
// records it read and folded into the child, and nothing else. A mixed
// session warns while the enhance is learning its child, after the
// enhance took its audit; that warning must survive the enhance and feed
// the next one.
func TestEnhanceKeepsLaterWarnings(t *testing.T) {
	const device = "fdc"
	d, _ := newWarmDaemon(t)
	defer d.Close()
	tn, _ := enhancementTenant(t, d, "alpha", device)
	eng, err := tn.engineFor(device)
	if err != nil {
		t.Fatal(err)
	}
	if err := auditMixed(tn, device); err != nil {
		t.Fatal(err)
	}
	consumed := eng.shared.Audit()
	if len(consumed) == 0 {
		t.Fatal("no audited warning before the enhance")
	}

	// The enhance learns its child by resuming the device's training
	// checkpoint. Dropping the checkpoint makes it run the training
	// first, and that run raises the later warning.
	rc := eng.rc.Load()
	rc.mu.Lock()
	rc.cp = nil
	rc.mu.Unlock()
	train, warned := rc.target.Train, false
	rc.target.Train = func(drv *sedspec.Driver) error {
		if !warned {
			warned = true
			if err := auditMixed(tn, device); err != nil {
				return err
			}
		}
		return train(drv)
	}
	res, err := tn.Swap(SwapRequest{Device: device, Enhance: true})
	if err != nil {
		t.Fatal(err)
	}
	if !warned || res.Warnings != len(consumed) {
		t.Fatalf("enhance %+v: replayed %d warnings, want the %d audited before it (learned: %t)",
			res, res.Warnings, len(consumed), warned)
	}
	later := eng.shared.Audit()
	if len(later) == 0 {
		t.Fatal("the enhance cleared the warning raised while it learned")
	}
	for _, r := range later {
		if r.Session == consumed[0].Session {
			t.Fatalf("session %d round %d was replayed by the enhance and is still audited", r.Session, r.Round)
		}
	}

	res, err = tn.Swap(SwapRequest{Device: device, Enhance: true})
	if err != nil {
		t.Fatalf("the warning raised during the first enhance did not feed the next: %v", err)
	}
	if res.Warnings != len(later) {
		t.Errorf("second enhance replayed %d warnings, want the %d raised during the first", res.Warnings, len(later))
	}
	if n := len(eng.shared.Audit()); n != 0 {
		t.Errorf("%d audit records left after the second enhance consumed them all", n)
	}
}

// TestDaemonEventRetentionBounded runs cycles of the nine PoCs (attach,
// verdict, detach each) against a daemon with a journal and compares the
// live heap after the first cycles and after three times as many. Every
// detected PoC publishes an anomaly carrying its frozen flight-recorder
// context. The journal consumes each event as it arrives, so what the
// daemon keeps of them is the hub's recent ring, full after the first
// cycles: the live heap must not grow with the number of anomalies the
// journal has consumed. The journal's 4096-slot ring does not wrap
// within the run, so a ring that kept consumed events would grow it by
// every anomaly context of the later cycles.
func TestDaemonEventRetentionBounded(t *testing.T) {
	const cycles = 40
	d, err := New(Options{
		StoreRoot:    t.TempDir(),
		Hub:          stream.NewHub(),
		Registry:     obs.NewRegistry(),
		DrainTimeout: 30 * time.Second,
		Journal:      journal.Options{Dir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tn, err := d.CreateTenant("alpha")
	if err != nil {
		t.Fatal(err)
	}
	pocs := cvesim.All()
	for _, p := range pocs {
		install(t, tn, InstallRequest{Corpus: "cve:" + p.CVE}, false)
	}
	run := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			for _, p := range pocs {
				v, err := replayVerdict(tn, p)
				if err != nil {
					t.Fatal(err)
				}
				if err := tableIII(p, v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	run(cycles)
	first := liveHeap(t, d)
	run(2 * cycles)
	last := liveHeap(t, d)
	if st := d.Journal().Status(); st.Dropped != 0 {
		t.Fatalf("journal dropped %d events", st.Dropped)
	}
	const bound = 256 << 10
	t.Logf("live heap after %d cycles: %d B, after %d: %d B", cycles, first, 3*cycles, last)
	if grew := int64(last) - int64(first); grew > bound {
		t.Errorf("live heap grew %d B over %d PoC cycles, want <= %d", grew, 2*cycles, bound)
	}
}

// liveHeap waits for the journal to persist everything published so far,
// collects, and reads the live heap.
func liveHeap(t *testing.T, d *Daemon) uint64 {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for d.Journal().Status().LastSeq < d.hub.Seq() {
		if time.Now().After(deadline) {
			t.Fatalf("journal stuck at seq %d, hub at %d", d.Journal().Status().LastSeq, d.hub.Seq())
		}
		time.Sleep(time.Millisecond)
	}
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}
