package daemon

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"sedspec"
	"sedspec/internal/cvesim"
	"sedspec/internal/machine"
	"sedspec/internal/obs"
	"sedspec/internal/obs/stream"
	"sedspec/internal/specstore"
	"sedspec/internal/workload"
)

// newWarmDaemon builds a daemon on its own hub and registry, so the
// hub's KindSpec count sees only this test's store publishes.
func newWarmDaemon(t *testing.T) (*Daemon, *stream.Hub) {
	t.Helper()
	hub := stream.NewHub()
	d, err := New(Options{
		StoreRoot:    t.TempDir(),
		Hub:          hub,
		Registry:     obs.NewRegistry(),
		DrainTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, hub
}

// storeVersions counts the versions a tenant's store holds across the
// five devices.
func storeVersions(tn *Tenant) int {
	n := 0
	for _, tg := range workload.Targets(true) {
		n += len(tn.Versions(tg.Name))
	}
	return n
}

// tableIII checks a verdict against the paper's detection matrix: each
// case study is detected by one of its listed strategies with the
// exploit kept from the device, and the documented miss (no strategies
// listed) goes undetected.
func tableIII(p *cvesim.PoC, v *Verdict) error {
	if len(p.Expected) == 0 {
		if v.Detected {
			return fmt.Errorf("%s: detected by %s, Table III documents a miss", p.CVE, v.Strategy)
		}
		return nil
	}
	if !v.Detected || v.Succeeded {
		return fmt.Errorf("%s: detected=%t succeeded=%t, Table III expects a detection", p.CVE, v.Detected, v.Succeeded)
	}
	for _, s := range p.Expected {
		if s.String() == v.Strategy {
			return nil
		}
	}
	return fmt.Errorf("%s: detected by %s, Table III lists %v", p.CVE, v.Strategy, p.Expected)
}

// replayVerdict attaches one poc session, waits for its verdict, and
// detaches it.
func replayVerdict(tn *Tenant, p *cvesim.PoC) (*Verdict, error) {
	ss, err := tn.Attach(AttachRequest{Device: p.Device, Workload: "poc", CVE: p.CVE})
	if err != nil {
		return nil, fmt.Errorf("%s: attach: %w", p.CVE, err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for ss[0].Status().Verdict == nil {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s: no verdict: %+v", p.CVE, ss[0].Status())
		}
		time.Sleep(time.Millisecond)
	}
	fin, err := tn.Detach(ss[0].ID)
	if err != nil {
		return nil, fmt.Errorf("%s: detach: %w", p.CVE, err)
	}
	if fin.Err != "" {
		return nil, fmt.Errorf("%s: session error: %s", p.CVE, fin.Err)
	}
	return fin.Verdict, nil
}

// auditMixed runs one bounded mixed session (the same seed each call)
// until its rare command has warned, then detaches it: the warning
// stays in the engine's audit trail, identical from call to call.
func auditMixed(tn *Tenant, device string) error {
	ss, err := tn.Attach(AttachRequest{Device: device, Workload: "mixed", Ops: 30, Seed: 1})
	if err != nil {
		return fmt.Errorf("%s: attach mixed: %w", device, err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for ss[0].Status().Warnings == 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: mixed session never warned: %+v", device, ss[0].Status())
		}
		time.Sleep(time.Millisecond)
	}
	fin, err := tn.Detach(ss[0].ID)
	if err != nil {
		return fmt.Errorf("%s: detach mixed: %w", device, err)
	}
	if fin.Err != "" || fin.Blocked != 0 {
		return fmt.Errorf("%s: mixed session failed in enhancement mode: %+v", device, fin)
	}
	return nil
}

// TestDaemonWarmPathHits pins the resident warm path: after one cold
// install per recipe, reinstalling a cve corpus, re-enhancing from the
// same audit trail after a rollback, and rolling back are all store
// hits — each loads a stored version, publishes no new version and no
// spec event — and the verdicts still match Table III. It also pins
// what the process-wide recipe table relies on: every recipe's key,
// and the program hash stored under it, equal ProgramHash of a later
// build. Later builds share the recipe's cached program; each device
// package's tests pin that an uncached build hashes the same.
func TestDaemonWarmPathHits(t *testing.T) {
	d, hub := newWarmDaemon(t)
	defer d.Close()
	pocT, err := d.CreateTenant("poc")
	if err != nil {
		t.Fatal(err)
	}
	enhT, err := d.CreateTenant("enh")
	if err != nil {
		t.Fatal(err)
	}

	// Cold: one learn per recipe.
	pocs := cvesim.All()
	for _, p := range pocs {
		info, err := pocT.Install(InstallRequest{Corpus: "cve:" + p.CVE})
		if err != nil {
			t.Fatalf("%s: cold install: %v", p.CVE, err)
		}
		if info.CacheHit {
			t.Errorf("%s: cold install reported a cache hit", p.CVE)
		}
	}
	learned := map[string]uint64{}
	for _, tg := range workload.Targets(true) {
		info, err := enhT.Install(InstallRequest{Device: tg.Name, Mode: "enhancement"})
		if err != nil {
			t.Fatalf("%s: cold install: %v", tg.Name, err)
		}
		if info.CacheHit {
			t.Errorf("%s: cold install reported a cache hit", tg.Name)
		}
		v, ok := enhT.Store().Latest(tg.Name)
		if !ok || v.CreatedBy != "learn" {
			t.Fatalf("%s: latest stored version is %+v, want the learned one", tg.Name, v)
		}
		learned[tg.Name] = v.Generation
	}

	// The recipe table's versions are the ones a fresh build hashes
	// to, and the cold installs stored their versions under them.
	checkKey := func(st *specstore.Store, device, corpus string, build machine.BuildFunc) {
		t.Helper()
		rc, err := d.resolveRecipe(device, corpus)
		if err != nil {
			t.Fatal(err)
		}
		dev, _ := build()
		fresh := sedspec.LearnedVersion(dev.Program(), corpus)
		if !reflect.DeepEqual(rc.want, fresh) {
			t.Errorf("%s: recipe version %+v, a fresh build hashes to %+v", corpus, rc.want, fresh)
		}
		if _, ok := st.Lookup(fresh.Key()); !ok {
			t.Errorf("%s: no stored version under a fresh build's key", corpus)
		}
	}
	for _, p := range pocs {
		checkKey(pocT.Store(), p.Device, "cve:"+p.CVE, p.Build)
	}
	for _, tg := range workload.Targets(true) {
		checkKey(enhT.Store(), tg.Name, "benign", tg.Build)
	}

	// First enhance per device learns the child; the rollback to the
	// learned generation is already a hit.
	for _, tg := range workload.Targets(true) {
		if err := auditMixed(enhT, tg.Name); err != nil {
			t.Fatal(err)
		}
		res, err := enhT.Swap(SwapRequest{Device: tg.Name, Enhance: true})
		if err != nil {
			t.Fatalf("%s: enhance: %v", tg.Name, err)
		}
		if res.CacheHit {
			t.Errorf("%s: first enhance reported a cache hit", tg.Name)
		}
		if _, err := enhT.Swap(SwapRequest{Device: tg.Name, Generation: learned[tg.Name]}); err != nil {
			t.Fatalf("%s: rollback: %v", tg.Name, err)
		}
	}

	// Warm: nothing below may publish.
	versions := storeVersions(pocT) + storeVersions(enhT)
	specEvents := hub.Published(stream.KindSpec)

	for _, p := range pocs {
		info, err := pocT.Install(InstallRequest{Corpus: "cve:" + p.CVE})
		if err != nil {
			t.Fatalf("%s: warm install: %v", p.CVE, err)
		}
		if !info.CacheHit {
			t.Errorf("%s: warm install missed the store", p.CVE)
		}
		v, err := replayVerdict(pocT, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := tableIII(p, v); err != nil {
			t.Error(err)
		}
	}
	for _, tg := range workload.Targets(true) {
		if err := auditMixed(enhT, tg.Name); err != nil {
			t.Fatal(err)
		}
		res, err := enhT.Swap(SwapRequest{Device: tg.Name, Enhance: true})
		if err != nil {
			t.Fatalf("%s: warm enhance: %v", tg.Name, err)
		}
		if !res.CacheHit || res.Warnings == 0 {
			t.Errorf("%s: re-enhance from the same audit trail missed the store: %+v", tg.Name, res)
		}
		res, err = enhT.Swap(SwapRequest{Device: tg.Name, Generation: learned[tg.Name]})
		if err != nil {
			t.Fatalf("%s: warm rollback: %v", tg.Name, err)
		}
		if res.StoreGen != learned[tg.Name] {
			t.Errorf("%s: rollback landed on store generation %d, want %d", tg.Name, res.StoreGen, learned[tg.Name])
		}
	}

	if got := storeVersions(pocT) + storeVersions(enhT); got != versions {
		t.Errorf("warm path published %d new store versions", got-versions)
	}
	if got := hub.Published(stream.KindSpec); got != specEvents {
		t.Errorf("warm path published %d spec events", got-specEvents)
	}
}
