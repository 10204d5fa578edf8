package daemon

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sedspec"
	"sedspec/internal/cvesim"
	"sedspec/internal/devices/fdc"
	"sedspec/internal/machine"
	"sedspec/internal/obs"
	"sedspec/internal/obs/stream"
	"sedspec/internal/simclock"
	"sedspec/internal/workload"
)

// newDaemonAt builds a daemon over the store root, so a second one over
// the same root is a restart.
func newDaemonAt(t *testing.T, root string) *Daemon {
	t.Helper()
	d, err := New(Options{
		StoreRoot:    root,
		Hub:          stream.NewHub(),
		Registry:     obs.NewRegistry(),
		DrainTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// driveIdle attaches an idle session to the tenant's engine for device,
// issues op's I/O on its machine from the calling goroutine (the idle
// session drives nothing itself, so the run is deterministic), and
// detaches it. The engine's audit keeps whatever warned.
func driveIdle(t *testing.T, tn *Tenant, device string, op func(d *sedspec.Driver) error) {
	t.Helper()
	ss, err := tn.Attach(AttachRequest{Device: device, Workload: "idle"})
	if err != nil {
		t.Fatal(err)
	}
	if err := op(sedspec.NewDriver(ss[0].ms.Attached())); err != nil {
		t.Fatalf("%s: %v", device, err)
	}
	if _, err := tn.Detach(ss[0].ID); err != nil {
		t.Fatal(err)
	}
}

// mixedOps is the "mixed" workload of a session of that seed, run for
// 30 ops.
func mixedOps(tg *workload.Target, seed uint64) func(d *sedspec.Driver) error {
	return func(d *sedspec.Driver) error {
		w := tg.NewSession(d, simclock.NewRand(seed^0x9e3779b97f4a7c15))
		if err := w.Prepare(); err != nil {
			return err
		}
		for n := 0; n < 30; n++ {
			op := w.Op
			if n%89 == 13 {
				op = w.Rare
			}
			if err := op(); err != nil {
				return err
			}
		}
		return nil
	}
}

// enhanceMiss enhances the tenant's engine for device and requires the
// child to be learned, not loaded.
func enhanceMiss(t *testing.T, tn *Tenant, device string) SwapResult {
	t.Helper()
	res, err := tn.Swap(SwapRequest{Device: device, Enhance: true})
	if err != nil {
		t.Fatalf("%s: enhance %s: %v", tn.Name(), device, err)
	}
	if res.CacheHit || res.Warnings == 0 {
		t.Fatalf("%s: enhance %s: %+v, want a learned child", tn.Name(), device, res)
	}
	return res
}

// TestTrainOncePerFleetSetup counts training runs through the corpus
// cells for a fleet-shaped set-up: one tenant installs the nine cve
// corpora, another installs each device's benign corpus in enhancement
// mode, audits a mixed session, enhances and rolls back. That is ten
// learns (five installs, five enhances) but five training runs, one per
// device. After a restart over the same store every install is a store
// hit, so the cells hold no checkpoint: the first enhance miss trains
// once, and a second one trains no more.
func TestTrainOncePerFleetSetup(t *testing.T) {
	root := t.TempDir()
	d := newDaemonAt(t, root)
	// Count the training function's calls too, the seam a build without
	// cell checkpoints also passes through.
	var calls atomic.Int64
	for _, tg := range workload.Targets(true) {
		rc, err := d.resolveRecipe(tg.Name, "benign")
		if err != nil {
			t.Fatal(err)
		}
		train := rc.target.Train
		rc.target.Train = func(drv *sedspec.Driver) error {
			calls.Add(1)
			return train(drv)
		}
	}
	poc, err := d.CreateTenant("poc")
	if err != nil {
		t.Fatal(err)
	}
	enh, err := d.CreateTenant("enh")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range cvesim.All() {
		install(t, poc, InstallRequest{Corpus: "cve:" + p.CVE}, false)
	}
	for _, tg := range workload.Targets(true) {
		learned := install(t, enh, InstallRequest{Device: tg.Name, Mode: "enhancement"}, false).Generation
		driveIdle(t, enh, tg.Name, mixedOps(tg, 1))
		enhanceMiss(t, enh, tg.Name)
		rollback(t, enh, tg.Name, learned)
	}
	if n := trainCount(d); n != 5 || calls.Load() != 5 {
		t.Errorf("a fleet set-up ran %d training runs (%d training calls), want 5", n, calls.Load())
	}
	d.Close()

	d = newDaemonAt(t, root)
	defer d.Close()
	enh, err = d.CreateTenant("enh")
	if err != nil {
		t.Fatal(err)
	}
	tg := workload.TargetByName("fdc", true)
	install(t, enh, InstallRequest{Device: tg.Name, Mode: "enhancement"}, true)
	if n := trainCount(d); n != 0 {
		t.Fatalf("a restarted daemon's store-hit install ran %d training runs", n)
	}
	for i, seed := range []uint64{2, 3} {
		driveIdle(t, enh, tg.Name, mixedOps(tg, seed))
		enhanceMiss(t, enh, tg.Name)
		if n := trainCount(d); n != 1 {
			t.Errorf("after restart, enhance %d ran %d training runs in all, want 1", i+1, n)
		}
	}
}

// TestConcurrentEnhancesShareOneCheckpoint races cold enhances of one
// device on four tenants (run it under -race): all resume the device's
// one training checkpoint, on a fresh daemon (the install trained) and
// on a restarted one (the cell trains once for the racing enhances), and
// every child is byte-for-byte the spec Enhance learns from the
// training corpus plus the same audit.
func TestConcurrentEnhancesShareOneCheckpoint(t *testing.T) {
	const device = "scsi"
	tg := workload.TargetByName(device, true)
	root := t.TempDir()
	for phase, seed := range []uint64{1, 2} {
		d := newDaemonAt(t, root)
		tenants := make([]*Tenant, 4)
		for i := range tenants {
			tn, err := d.CreateTenant(string(rune('a' + i)))
			if err != nil {
				t.Fatal(err)
			}
			install(t, tn, InstallRequest{Device: device, Mode: "enhancement"}, phase == 1)
			driveIdle(t, tn, device, mixedOps(tg, seed))
			tenants[i] = tn
		}
		eng, err := tenants[0].engineFor(device)
		if err != nil {
			t.Fatal(err)
		}
		want := enhancedBlob(t, tg, eng.shared.Audit())

		var wg sync.WaitGroup
		for _, tn := range tenants {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := tn.Swap(SwapRequest{Device: device, Enhance: true})
				if err != nil || res.CacheHit {
					t.Errorf("%s: enhance: %+v, %v", tn.Name(), res, err)
					return
				}
				if got := storedVersion(t, tn, device, res.StoreGen).Blob; got != want {
					t.Errorf("%s: child blob %s, Enhance learns %s", tn.Name(), got[:12], want[:12])
				}
			}()
		}
		wg.Wait()
		if n := trainCount(d); n != 1 {
			t.Errorf("phase %d: ran %d training runs, want 1", phase, n)
		}
		d.Close()
	}
}

// enhancedBlob is the content address of the spec Enhance learns, on a
// fresh machine, from the target's training corpus plus audit.
func enhancedBlob(t *testing.T, tg *workload.Target, audit []sedspec.AuditRecord) string {
	t.Helper()
	dev, aopts := tg.Build()
	spec, err := sedspec.Enhance(machine.New(machine.WithMemory(1<<20)).Attach(dev, aopts...), tg.Train, audit)
	if err != nil {
		t.Fatal(err)
	}
	data, err := spec.EncodeBinary()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// fdcOp issues op on a fresh fdc guest over the driver.
func fdcOp(op func(g *fdc.Guest) error) func(d *sedspec.Driver) error {
	return func(d *sedspec.Driver) error {
		g := fdc.NewGuest(d)
		if err := g.Reset(); err != nil {
			return err
		}
		return op(g)
	}
}

var (
	fdcDumpReg = fdcOp(func(g *fdc.Guest) error { return g.DumpReg() })
	fdcFormat  = fdcOp(func(g *fdc.Guest) error { return g.Format(0, 2, 9) })
)

// TestChainedEnhanceKeepsParentEnhancements is the daemon twin of the
// facade's chain test: an enhance under an enhanced generation replays
// the parent's warnings too. DumpReg's "unknown device command 0xe"
// drives the first enhance, a Format warning under that child the
// second, and under the grandchild DumpReg must not raise the original
// warning again.
func TestChainedEnhanceKeepsParentEnhancements(t *testing.T) {
	d, _ := newWarmDaemon(t)
	defer d.Close()
	tn, _ := enhancementTenant(t, d, "alpha", "fdc")
	eng, err := tn.engineFor("fdc")
	if err != nil {
		t.Fatal(err)
	}
	driveIdle(t, tn, "fdc", fdcDumpReg)
	audit := eng.shared.Audit()
	if len(audit) == 0 {
		t.Fatal("DumpReg raised no warning under the learned spec")
	}
	original := audit[0].Detail
	first := enhanceMiss(t, tn, "fdc")
	driveIdle(t, tn, "fdc", fdcFormat)
	second := enhanceMiss(t, tn, "fdc")
	if v := storedVersion(t, tn, "fdc", second.StoreGen); v.Parent != first.StoreGen {
		t.Fatalf("second child's parent is generation %d, want %d", v.Parent, first.StoreGen)
	}
	driveIdle(t, tn, "fdc", fdcDumpReg)
	for _, a := range eng.shared.Audit() {
		if a.Detail == original {
			t.Errorf("the chained child forgot its parent's enhancement: DumpReg warns %q again", original)
		}
	}
}

// TestForgetfulChainedChildIsAMiss is the daemon twin of the facade's
// test: the tenant's store holds, under the key a learned parent's
// child derivation gives, a child learned from training plus the new
// audit alone, as a build that did not replay the parent chain
// published it. The enhance must miss it and publish a new generation
// that keeps the parent's enhancement.
func TestForgetfulChainedChildIsAMiss(t *testing.T) {
	d, _ := newWarmDaemon(t)
	defer d.Close()
	tn, _ := enhancementTenant(t, d, "alpha", "fdc")
	eng, err := tn.engineFor("fdc")
	if err != nil {
		t.Fatal(err)
	}
	driveIdle(t, tn, "fdc", fdcDumpReg)
	original := eng.shared.Audit()[0].Detail
	first := enhanceMiss(t, tn, "fdc")
	driveIdle(t, tn, "fdc", fdcFormat)
	audit := eng.shared.Audit()
	forgetful, err := eng.rc.Load().enhanced(audit)
	if err != nil {
		t.Fatal(err)
	}
	asLearned := storedVersion(t, tn, "fdc", first.StoreGen)
	asLearned.CreatedBy = "learn"
	stale, err := tn.store.PutEncoded(forgetful, sedspec.EnhancedVersion(asLearned.ProgramHash, asLearned, audit))
	if err != nil {
		t.Fatal(err)
	}
	second := enhanceMiss(t, tn, "fdc")
	if second.StoreGen <= stale.Generation {
		t.Fatalf("enhance published generation %d, want one past the forgetful generation %d", second.StoreGen, stale.Generation)
	}
	driveIdle(t, tn, "fdc", fdcDumpReg)
	for _, a := range eng.shared.Audit() {
		if a.Detail == original {
			t.Errorf("the chained child forgot its parent's enhancement: DumpReg warns %q again", original)
		}
	}
}
