package daemon

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sedspec/internal/checker"
	"sedspec/internal/obs"
	"sedspec/internal/obs/stream"
)

// PollHealth folds fleet snapshots from its own goroutine until the
// returned stop is called (idempotent), so -race sees the pull-only
// fold read engines while the control plane churns them.
func PollHealth(h *stream.Health) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
				h.Snapshot()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		wg.Wait()
	}
}

// TestDaemonControlPlaneChurn exercises the daemon the way -race wants
// it exercised: two tenants, one running enhance+swap churn under
// long-lived mixed sessions, the other churning benign attach/detach
// while PoC sessions replay an exploit. The invariants:
//
//   - pure-benign sessions report zero blocked rounds and no errors
//     (no false detections under concurrent control-plane traffic),
//   - PoC sessions still detect (no missed detections),
//   - each detach folds its session's counters into the engine's
//     retired banks exactly once — the engine total equals the sum of
//     the per-detach final statuses.
func TestDaemonControlPlaneChurn(t *testing.T) {
	d, err := New(Options{
		StoreRoot:    t.TempDir(),
		Hub:          stream.NewHub(),
		Registry:     obs.NewRegistry(),
		DrainTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	stopPoll := PollHealth(d.Health())
	defer stopPoll()

	ta, err := d.CreateTenant("alpha")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := d.CreateTenant("beta")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ta.Install(InstallRequest{Device: "fdc", Mode: "enhancement"}); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Install(InstallRequest{Device: "scsi"}); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Install(InstallRequest{Corpus: "cve:CVE-2021-3409", Budget: 200_000}); err != nil {
		t.Fatal(err)
	}

	// Tenant alpha: four long-lived mixed sessions feeding the audit
	// trail the enhance churn consumes.
	aSessions, err := ta.Attach(AttachRequest{Device: "fdc", Workload: "mixed", Count: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var enhances atomic.Int32

	// Enhance+swap churn against alpha while its sessions run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		deadline := time.Now().Add(10 * time.Second)
		for enhances.Load() < 2 && time.Now().Before(deadline) {
			if _, err := ta.Swap(SwapRequest{Device: "fdc", Enhance: true}); err == nil {
				enhances.Add(1)
			} else {
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()

	// Benign attach/detach churn on beta/scsi.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			ss, err := tb.Attach(AttachRequest{Device: "scsi", Workload: "benign", Count: 2, Ops: 120, Seed: uint64(100 + i)})
			if err != nil {
				t.Errorf("benign attach %d: %v", i, err)
				return
			}
			for _, s := range ss {
				st, err := tb.Detach(s.ID)
				if err != nil {
					t.Errorf("benign detach %d: %v", s.ID, err)
					return
				}
				if st.Blocked != 0 || st.Err != "" {
					t.Errorf("benign session %d falsely detected: %+v", s.ID, st)
					return
				}
			}
		}
	}()

	// PoC sessions on beta/sdhci replay the exploit during the churn.
	pocs, err := tb.Attach(AttachRequest{Device: "sdhci", Workload: "poc", Count: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, s := range pocs {
		for s.Status().Verdict == nil {
			if time.Now().After(deadline) {
				t.Fatalf("poc session %d: no verdict", s.ID)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	wg.Wait()
	stopPoll()

	if enhances.Load() == 0 {
		t.Error("enhance+swap churn never succeeded")
	}
	for _, s := range pocs {
		st, err := tb.Detach(s.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Verdict == nil || !st.Verdict.Detected {
			t.Errorf("poc session %d missed the detection: %+v", s.ID, st)
		}
	}

	// Fold-exactly-once: the sum of alpha's per-detach final statuses
	// must equal the engine's retired totals — no double fold, no lost
	// fold.
	var sum checker.Stats
	for _, s := range aSessions {
		st, err := ta.Detach(s.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Rounds == 0 {
			t.Errorf("mixed session %d made no progress", s.ID)
		}
		sum.Rounds += st.Rounds
		sum.Blocked += st.Blocked
		sum.Warnings += st.Warnings
	}
	ta.mu.Lock()
	eng := ta.engines["fdc"]
	ta.mu.Unlock()
	if eng.shared.Sessions() != 0 {
		t.Fatalf("engine still reports %d live sessions", eng.shared.Sessions())
	}
	got := eng.shared.Stats()
	if got.Rounds != sum.Rounds || got.Blocked != sum.Blocked || got.Warnings != sum.Warnings {
		t.Errorf("engine totals (rounds %d, blocked %d, warnings %d) != per-detach sum (rounds %d, blocked %d, warnings %d)",
			got.Rounds, got.Blocked, got.Warnings, sum.Rounds, sum.Blocked, sum.Warnings)
	}

	if err := d.Close(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}
