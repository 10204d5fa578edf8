package daemon

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"sedspec"
	"sedspec/internal/checker"
	"sedspec/internal/core"
	"sedspec/internal/cvesim"
	"sedspec/internal/devices/fdc"
	"sedspec/internal/machine"
	"sedspec/internal/specstore"
)

// enforced returns the sealed spec the tenant's engine for device
// currently publishes.
func enforced(t *testing.T, tn *Tenant, device string) *core.SealedSpec {
	t.Helper()
	eng, err := tn.engineFor(device)
	if err != nil {
		t.Fatal(err)
	}
	return eng.shared.Sealed()
}

// install installs corpus on the tenant and checks whether it was a
// store hit.
func install(t *testing.T, tn *Tenant, req InstallRequest, wantHit bool) EngineInfo {
	t.Helper()
	info, err := tn.Install(req)
	if err != nil {
		t.Fatalf("%s: install %s: %v", tn.Name(), req.Corpus, err)
	}
	if info.CacheHit != wantHit {
		t.Fatalf("%s: install %s: cache_hit=%t, want %t", tn.Name(), req.Corpus, info.CacheHit, wantHit)
	}
	return info
}

// TestCompiledSpecSharedAcrossTenants pins the compiled-version memo:
// two tenants installing one cve corpus, a reinstall, and a rollback to
// the learned generation all enforce one sealed spec, and that spec is
// the one a fresh decode of the stored blob describes.
func TestCompiledSpecSharedAcrossTenants(t *testing.T) {
	d, _ := newWarmDaemon(t)
	defer d.Close()
	p := cvesim.Venom()
	req := InstallRequest{Corpus: "cve:" + p.CVE}
	alpha, err := d.CreateTenant("alpha")
	if err != nil {
		t.Fatal(err)
	}
	beta, err := d.CreateTenant("beta")
	if err != nil {
		t.Fatal(err)
	}

	install(t, alpha, req, false)
	want := enforced(t, alpha, p.Device)
	// beta's namespace is empty, so its install misses and publishes the
	// bytes the daemon learned for alpha, which take alpha's compiled
	// copy.
	install(t, beta, req, false)
	if got := enforced(t, beta, p.Device); got != want {
		t.Error("a second tenant learning the same corpus compiled its own copy")
	}
	install(t, alpha, req, true)
	if got := enforced(t, alpha, p.Device); got != want {
		t.Error("a warm reinstall compiled a new copy")
	}

	learned := mustLatestGen(t, alpha, p.Device)
	res, err := alpha.Swap(SwapRequest{Device: p.Device, Generation: learned})
	if err != nil {
		t.Fatal(err)
	}
	if res.ToGen != res.FromGen+1 || res.StoreGen != learned {
		t.Errorf("rollback result %+v, want one new generation on store generation %d", res, learned)
	}
	if got := enforced(t, alpha, p.Device); got != want {
		t.Error("a rollback to the learned generation compiled a new copy")
	}

	meta, ok := alpha.Store().Lookup(sedspec.LearnedVersion(want.Program(), req.Corpus).Key())
	if !ok {
		t.Fatal("learned version not in the store")
	}
	blob, err := alpha.Store().Read(meta)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := core.DecodeBinary(want.Program(), blob)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := alpha.engineFor(p.Device)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(eng.shared.Sealed(), fresh.Seal()) {
		t.Error("the shared compiled spec differs from a fresh decode of its blob")
	}
	v, err := replayVerdict(alpha, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := tableIII(p, v); err != nil {
		t.Error(err)
	}
}

// enhance audits one mixed session on the tenant's enhancement-mode
// engine for device, enhances from it, and checks whether the child was
// a store hit.
func enhance(t *testing.T, tn *Tenant, device string, wantHit bool) SwapResult {
	t.Helper()
	if err := auditMixed(tn, device); err != nil {
		t.Fatal(err)
	}
	res, err := tn.Swap(SwapRequest{Device: device, Enhance: true})
	if err != nil {
		t.Fatalf("%s: enhance %s: %v", tn.Name(), device, err)
	}
	if res.CacheHit != wantHit || res.Warnings == 0 {
		t.Fatalf("%s: enhance %s: %+v, want cache_hit=%t", tn.Name(), device, res, wantHit)
	}
	return res
}

// rollback swaps the tenant's engine for device to a stored generation.
func rollback(t *testing.T, tn *Tenant, device string, gen uint64) {
	t.Helper()
	res, err := tn.Swap(SwapRequest{Device: device, Generation: gen})
	if err != nil {
		t.Fatalf("%s: rollback %s to %d: %v", tn.Name(), device, gen, err)
	}
	if res.StoreGen != gen {
		t.Fatalf("%s: rollback %s landed on store generation %d, want %d", tn.Name(), device, res.StoreGen, gen)
	}
}

// storedVersion returns the tenant's stored version gen of device.
func storedVersion(t *testing.T, tn *Tenant, device string, gen uint64) specstore.VersionMeta {
	t.Helper()
	for _, v := range tn.Versions(device) {
		if v.Generation == gen {
			return v
		}
	}
	t.Fatalf("%s: no stored generation %d for %s", tn.Name(), gen, device)
	return specstore.VersionMeta{}
}

// enhancementTenant creates a tenant running device's benign corpus in
// enhancement mode and returns it with its learned generation.
func enhancementTenant(t *testing.T, d *Daemon, name, device string) (*Tenant, uint64) {
	t.Helper()
	tn, err := d.CreateTenant(name)
	if err != nil {
		t.Fatal(err)
	}
	install(t, tn, InstallRequest{Device: device, Mode: "enhancement"}, false)
	return tn, mustLatestGen(t, tn, device)
}

// TestEnhancedChildSharedAcrossEnhances pins the enhance half of the
// compiled-version memo: re-enhancing from the same audit trail after a
// rollback, a second tenant enhancing from the same warnings, and a
// rollback to the enhanced generation all publish the first enhance's
// sealed spec, and that spec is the one a fresh decode of the child
// blob describes.
func TestEnhancedChildSharedAcrossEnhances(t *testing.T) {
	d, _ := newWarmDaemon(t)
	defer d.Close()
	const dev = "fdc"
	alpha, learned := enhancementTenant(t, d, "alpha", dev)
	beta, _ := enhancementTenant(t, d, "beta", dev)

	res := enhance(t, alpha, dev, false)
	child := enforced(t, alpha, dev)
	rollback(t, alpha, dev, learned)
	enhance(t, alpha, dev, true)
	if got := enforced(t, alpha, dev); got != child {
		t.Error("a warm enhance compiled a new copy of the child")
	}
	// beta's namespace has no child yet, so it relearns; the relearned
	// blob is the same bytes and takes the copy alpha compiled.
	enhance(t, beta, dev, false)
	if got := enforced(t, beta, dev); got != child {
		t.Error("a second tenant enhancing from the same warnings compiled its own copy")
	}
	rollback(t, alpha, dev, learned)
	rollback(t, alpha, dev, res.StoreGen)
	if got := enforced(t, alpha, dev); got != child {
		t.Error("a rollback to the enhanced generation compiled a new copy")
	}

	blob, err := alpha.Store().Read(storedVersion(t, alpha, dev, res.StoreGen))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := core.DecodeBinary(child.Program(), blob)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := alpha.engineFor(dev)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(eng.shared.Sealed(), fresh.Seal()) {
		t.Error("the shared compiled child differs from a fresh decode of its blob")
	}
}

// TestCorruptChildBlobAfterMemoizedEnhanceRelearns is the enhance twin
// of TestCorruptBlobAfterMemoizedInstallRelearns: with the child's
// compiled copy memoized, a damaged or missing child blob still fails
// the hash check, so the enhance relearns, reports a miss and puts the
// blob back, and the enhance after it hits.
func TestCorruptChildBlobAfterMemoizedEnhanceRelearns(t *testing.T) {
	d, _ := newWarmDaemon(t)
	defer d.Close()
	const dev = "fdc"
	tn, learned := enhancementTenant(t, d, "alpha", dev)
	res := enhance(t, tn, dev, false)
	rollback(t, tn, dev, learned)
	enhance(t, tn, dev, true)
	meta := storedVersion(t, tn, dev, res.StoreGen)
	path := filepath.Join(tn.Store().Dir(), "blobs", meta.Blob+".spec")

	for _, damage := range []struct {
		name string
		do   func() error
	}{
		{"corrupt", func() error { return os.WriteFile(path, []byte("SEDS\x01garbage"), 0o644) }},
		{"missing", func() error { return os.Remove(path) }},
	} {
		if err := damage.do(); err != nil {
			t.Fatal(err)
		}
		rollback(t, tn, dev, learned)
		enhance(t, tn, dev, false)
		if _, err := tn.Store().Read(meta); err != nil {
			t.Fatalf("%s child blob not healed by the relearn: %v", damage.name, err)
		}
		rollback(t, tn, dev, learned)
		enhance(t, tn, dev, true)
		if n := len(tn.Versions(dev)); n != 2 {
			t.Errorf("%s child blob: store holds %d versions, want the learned one and its child", damage.name, n)
		}
	}
}

// TestCorruptBlobAfterMemoizedInstallRelearns is the daemon twin of the
// store's corrupt-blob test: with the compiled copy already memoized, a
// damaged or missing blob still fails the hash check, so the install
// reports a miss and puts the blob back from the bytes the daemon
// learned for the device (TestLearnOncePerDeviceCorpus checks that this
// runs no learn).
func TestCorruptBlobAfterMemoizedInstallRelearns(t *testing.T) {
	d, _ := newWarmDaemon(t)
	defer d.Close()
	p := cvesim.Venom()
	req := InstallRequest{Corpus: "cve:" + p.CVE}
	tn, err := d.CreateTenant("alpha")
	if err != nil {
		t.Fatal(err)
	}
	install(t, tn, req, false)
	install(t, tn, req, true)
	meta, ok := tn.Store().Latest(p.Device)
	if !ok {
		t.Fatal("nothing stored")
	}
	path := filepath.Join(tn.Store().Dir(), "blobs", meta.Blob+".spec")

	for _, damage := range []struct {
		name string
		do   func() error
	}{
		{"corrupt", func() error { return os.WriteFile(path, []byte("SEDS\x01garbage"), 0o644) }},
		{"missing", func() error { return os.Remove(path) }},
	} {
		if err := damage.do(); err != nil {
			t.Fatal(err)
		}
		install(t, tn, req, false)
		if _, err := tn.Store().Read(meta); err != nil {
			t.Fatalf("%s blob not healed by the relearn: %v", damage.name, err)
		}
		install(t, tn, req, true)
		if n := len(tn.Versions(p.Device)); n != 1 {
			t.Errorf("%s blob: store holds %d versions, want the one learned version", damage.name, n)
		}
	}
	v, err := replayVerdict(tn, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := tableIII(p, v); err != nil {
		t.Error(err)
	}
}

// TestPublishRejectsIncompatibleCompiled checks that publishing a
// compiled version keeps the swap gate: another device's spec, or a
// spec for a differently shaped build of the same device, is refused
// and the generation does not move.
func TestPublishRejectsIncompatibleCompiled(t *testing.T) {
	d, _ := newWarmDaemon(t)
	defer d.Close()
	p := cvesim.Venom()
	tn, err := d.CreateTenant("alpha")
	if err != nil {
		t.Fatal(err)
	}
	install(t, tn, InstallRequest{Corpus: "cve:" + p.CVE}, false)
	install(t, tn, InstallRequest{Device: "ehci"}, false)
	eng, err := tn.engineFor(p.Device)
	if err != nil {
		t.Fatal(err)
	}
	other, err := tn.engineFor("ehci")
	if err != nil {
		t.Fatal(err)
	}
	gen := eng.shared.Generation()

	if err := eng.shared.Publish(other.rc.Load().learned.Load().cv); err == nil {
		t.Error("fdc engine accepted the ehci compiled spec")
	}
	patched := fdc.New(fdc.Options{FixVenom: true})
	att := machine.New(machine.WithMemory(1<<20)).Attach(patched, machine.WithPIO(0, fdc.PortCount))
	spec, err := sedspec.Learn(att, p.Train)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.shared.Publish(checker.Compile(spec)); err == nil {
		t.Error("fdc engine accepted a spec for the patched fdc program")
	}
	if got := eng.shared.Generation(); got != gen {
		t.Errorf("rejected publications moved the generation %d -> %d", gen, got)
	}
}

// TestCompiledSharedUnderConcurrentSwaps runs poc sessions, benign
// sessions, warm reinstalls, enhances and rollbacks at once on two
// tenants whose engines share compiled versions (run it under -race).
// Every verdict must match Table III, no benign or mixed session may be
// blocked, every enhance on either tenant publishes one compiled child,
// and at the end both tenants still enforce the one compiled copy per
// corpus.
func TestCompiledSharedUnderConcurrentSwaps(t *testing.T) {
	d, _ := newWarmDaemon(t)
	defer d.Close()
	p := cvesim.Venom()
	const benignDev, enhDev = "ehci", "sdhci"
	pocReq := InstallRequest{Corpus: "cve:" + p.CVE}
	benignReq := InstallRequest{Device: benignDev}
	enhReq := InstallRequest{Device: enhDev, Mode: "enhancement"}
	var tenants [2]*Tenant
	for i, name := range []string{"alpha", "beta"} {
		tn, err := d.CreateTenant(name)
		if err != nil {
			t.Fatal(err)
		}
		install(t, tn, pocReq, false)
		install(t, tn, benignReq, false)
		install(t, tn, enhReq, false)
		tenants[i] = tn
	}
	wantPoC := enforced(t, tenants[0], p.Device)
	wantBenign := enforced(t, tenants[0], benignDev)
	wantEnh := enforced(t, tenants[0], enhDev)
	learned := map[*Tenant][3]uint64{}
	for _, tn := range tenants {
		learned[tn] = [3]uint64{mustLatestGen(t, tn, p.Device), mustLatestGen(t, tn, benignDev), mustLatestGen(t, tn, enhDev)}
	}
	var childMu sync.Mutex
	children := map[*core.SealedSpec]bool{}

	var wg sync.WaitGroup
	run := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}
	const rounds = 4
	benignIDs := map[*Tenant]int{}
	for _, tn := range tenants {
		// The benign session runs its workload until detached, across
		// every swap below.
		ss, err := tn.Attach(AttachRequest{Device: benignDev, Workload: "benign", Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		run(func() {
			for i := 0; i < rounds; i++ {
				v, err := replayVerdict(tn, p)
				if err != nil {
					t.Errorf("%s: %v", tn.Name(), err)
					return
				}
				if err := tableIII(p, v); err != nil {
					t.Errorf("%s: under concurrent swaps: %v", tn.Name(), err)
				}
			}
		})
		run(func() {
			gens := learned[tn]
			for i := 0; i < rounds; i++ {
				if _, err := tn.Install(pocReq); err != nil {
					t.Errorf("%s: reinstall: %v", tn.Name(), err)
					return
				}
				if _, err := tn.Install(benignReq); err != nil {
					t.Errorf("%s: reinstall: %v", tn.Name(), err)
					return
				}
				if _, err := tn.Swap(SwapRequest{Device: p.Device, Generation: gens[0]}); err != nil {
					t.Errorf("%s: rollback: %v", tn.Name(), err)
					return
				}
				if _, err := tn.Swap(SwapRequest{Device: benignDev, Generation: gens[1]}); err != nil {
					t.Errorf("%s: rollback: %v", tn.Name(), err)
					return
				}
			}
		})
		run(func() {
			for i := 0; i < rounds; i++ {
				if err := auditMixed(tn, enhDev); err != nil {
					t.Errorf("%s: %v", tn.Name(), err)
					return
				}
				if _, err := tn.Swap(SwapRequest{Device: enhDev, Enhance: true}); err != nil {
					t.Errorf("%s: enhance: %v", tn.Name(), err)
					return
				}
				// This goroutine is the engine's only swapper, so the
				// child is still enforced here.
				eng, err := tn.engineFor(enhDev)
				if err != nil {
					t.Errorf("%s: %v", tn.Name(), err)
					return
				}
				childMu.Lock()
				children[eng.shared.Sealed()] = true
				childMu.Unlock()
				if _, err := tn.Swap(SwapRequest{Device: enhDev, Generation: learned[tn][2]}); err != nil {
					t.Errorf("%s: rollback: %v", tn.Name(), err)
					return
				}
			}
		})
		benignIDs[tn] = ss[0].ID
	}
	wg.Wait()

	for _, tn := range tenants {
		fin, err := tn.Detach(benignIDs[tn])
		if err != nil {
			t.Fatalf("%s: detach benign: %v", tn.Name(), err)
		}
		if fin.Rounds == 0 || fin.Err != "" || fin.Blocked != 0 || fin.Warnings != 0 {
			t.Errorf("%s: benign session under concurrent swaps: %+v", tn.Name(), fin)
		}
		if enforced(t, tn, p.Device) != wantPoC || enforced(t, tn, benignDev) != wantBenign || enforced(t, tn, enhDev) != wantEnh {
			t.Errorf("%s: engine left the shared compiled versions", tn.Name())
		}
	}
	if len(children) != 1 {
		t.Errorf("enhances from one audit trail published %d compiled children, want 1", len(children))
	}
}
