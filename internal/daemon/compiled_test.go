package daemon

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"sedspec"
	"sedspec/internal/checker"
	"sedspec/internal/core"
	"sedspec/internal/cvesim"
	"sedspec/internal/devices/fdc"
	"sedspec/internal/machine"
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
	// beta's namespace is empty, so it learns again; the relearned blob
	// is the same bytes and takes the compiled copy alpha made.
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
	if eng.shared.Spec().Dot() != fresh.Dot() {
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

// TestCorruptBlobAfterMemoizedInstallRelearns is the daemon twin of the
// store's corrupt-blob test: with the compiled copy already memoized, a
// damaged or missing blob still fails the hash check, so the install
// relearns, reports a miss, and puts the blob back.
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
// sessions, warm reinstalls and rollbacks at once on two tenants whose
// engines share compiled versions (run it under -race). Every verdict
// must match Table III, no benign session may be flagged, and at the
// end both tenants still enforce the one compiled copy per corpus.
func TestCompiledSharedUnderConcurrentSwaps(t *testing.T) {
	d, _ := newWarmDaemon(t)
	defer d.Close()
	p := cvesim.Venom()
	const benignDev = "ehci"
	pocReq := InstallRequest{Corpus: "cve:" + p.CVE}
	benignReq := InstallRequest{Device: benignDev}
	var tenants [2]*Tenant
	for i, name := range []string{"alpha", "beta"} {
		tn, err := d.CreateTenant(name)
		if err != nil {
			t.Fatal(err)
		}
		install(t, tn, pocReq, false)
		install(t, tn, benignReq, false)
		tenants[i] = tn
	}
	wantPoC := enforced(t, tenants[0], p.Device)
	wantBenign := enforced(t, tenants[0], benignDev)
	learned := map[*Tenant][2]uint64{}
	for _, tn := range tenants {
		learned[tn] = [2]uint64{mustLatestGen(t, tn, p.Device), mustLatestGen(t, tn, benignDev)}
	}

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
		if enforced(t, tn, p.Device) != wantPoC || enforced(t, tn, benignDev) != wantBenign {
			t.Errorf("%s: engine left the shared compiled versions", tn.Name())
		}
	}
}
