package daemon

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"sedspec"
	"sedspec/internal/core"
	"sedspec/internal/cvesim"
	"sedspec/internal/machine"
	"sedspec/internal/obs/stream"
	"sedspec/internal/workload"
)

// TestRecipeSharedAcrossTenants drives the one recipe program every
// engine shares from many goroutines at once (run it under -race): two
// tenants install the same corpus concurrently — cold, then over and
// over as store hits that decode against the shared program — while
// poc sessions attach and replay on both tenants and a rollback swaps
// one tenant's engine back to its learned generation. Every session
// must still detect, the hits and rollbacks must publish nothing, and
// both tenants must end up enforcing one compiled copy.
func TestRecipeSharedAcrossTenants(t *testing.T) {
	d, hub := newWarmDaemon(t)
	defer d.Close()
	p := cvesim.Venom()
	corpus := "cve:" + p.CVE
	var tenants [2]*Tenant
	for i, name := range []string{"alpha", "beta"} {
		tn, err := d.CreateTenant(name)
		if err != nil {
			t.Fatal(err)
		}
		tenants[i] = tn
	}

	var wg sync.WaitGroup
	run := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}
	for _, tn := range tenants {
		run(func() {
			if _, err := tn.Install(InstallRequest{Corpus: corpus}); err != nil {
				t.Errorf("%s: cold install: %v", tn.Name(), err)
			}
		})
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	learned := mustLatestGen(t, tenants[0], p.Device)
	specEvents := hub.Published(stream.KindSpec)

	const rounds = 4
	for _, tn := range tenants {
		run(func() {
			for i := 0; i < rounds; i++ {
				info, err := tn.Install(InstallRequest{Corpus: corpus})
				if err != nil {
					t.Errorf("%s: reinstall: %v", tn.Name(), err)
					return
				}
				if !info.CacheHit {
					t.Errorf("%s: reinstall %d missed the store", tn.Name(), i)
				}
			}
		})
		run(func() {
			for i := 0; i < rounds; i++ {
				v, err := replayVerdict(tn, p)
				if err != nil {
					t.Errorf("%s: %v", tn.Name(), err)
					return
				}
				if err := tableIII(p, v); err != nil {
					t.Errorf("%s: under concurrent installs: %v", tn.Name(), err)
				}
			}
		})
	}
	run(func() {
		for i := 0; i < rounds; i++ {
			if _, err := tenants[0].Swap(SwapRequest{Device: p.Device, Generation: learned}); err != nil {
				t.Errorf("rollback: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
	wg.Wait()

	rcs := make([]*recipe, len(tenants))
	for i, tn := range tenants {
		eng, err := tn.engineFor(p.Device)
		if err != nil {
			t.Fatal(err)
		}
		rcs[i] = eng.rc.Load()
		if n := len(tn.Versions(p.Device)); n != 1 {
			t.Errorf("%s: store holds %d versions, want the one cold learn", tn.Name(), n)
		}
	}
	if rcs[0] != rcs[1] {
		t.Error("two tenants installing one corpus resolved two recipes")
	}
	if enforced(t, tenants[0], p.Device) != enforced(t, tenants[1], p.Device) {
		t.Error("two tenants installing one corpus at once hold two compiled copies")
	}
	if got := hub.Published(stream.KindSpec); got != specEvents {
		t.Errorf("hits and rollbacks published %d spec events", got-specEvents)
	}
}

// mustLatestGen returns the newest stored generation for the device.
func mustLatestGen(t *testing.T, tn *Tenant, device string) uint64 {
	t.Helper()
	v, ok := tn.Store().Latest(device)
	if !ok {
		t.Fatalf("%s: nothing stored for %s", tn.Name(), device)
	}
	return v.Generation
}

// trainCount returns how many training runs the daemon's corpus cells ran.
func trainCount(d *Daemon) int {
	d.recipeMu.Lock()
	defer d.recipeMu.Unlock()
	n := 0
	for _, c := range d.cells {
		c.mu.Lock()
		n += c.trains
		c.mu.Unlock()
	}
	return n
}

// freshBlob learns a corpus on a fresh machine, outside any daemon, and
// returns the content address of its encoding.
func freshBlob(t *testing.T, build machine.BuildFunc, train sedspec.TrainFunc) string {
	t.Helper()
	dev, aopts := build()
	spec, err := sedspec.Learn(machine.New(machine.WithMemory(1<<20)).Attach(dev, aopts...), train)
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

// TestLearnOncePerDeviceCorpus pins one learn per device per daemon:
// two tenants installing the nine cve corpora and the five benign ones
// run five learns, every tenant's store holds exactly the versions a
// learn per corpus would publish (the same generations, keys and
// blobs), and every engine of one device enforces one sealed spec. A
// damaged or missing blob heals from the daemon's bytes without a
// learn, and four tenants cold-installing one device at once on a fresh
// daemon learn once.
func TestLearnOncePerDeviceCorpus(t *testing.T) {
	d, _ := newWarmDaemon(t)
	defer d.Close()
	type corpusRef struct {
		device, corpus string
		build          machine.BuildFunc
		train          sedspec.TrainFunc
	}
	var corpora []corpusRef
	for _, p := range cvesim.All() {
		corpora = append(corpora, corpusRef{p.Device, "cve:" + p.CVE, p.Build, p.Train})
	}
	for _, tg := range workload.Targets(true) {
		corpora = append(corpora, corpusRef{tg.Name, "benign", tg.Build, tg.Train})
	}
	blobs := map[string]string{}
	for _, c := range corpora {
		blobs[c.device+"/"+c.corpus] = freshBlob(t, c.build, c.train)
	}

	sealed := map[string]*core.SealedSpec{}
	var tenants []*Tenant
	for _, name := range []string{"alpha", "beta"} {
		tn, err := d.CreateTenant(name)
		if err != nil {
			t.Fatal(err)
		}
		tenants = append(tenants, tn)
		gens := map[string]uint64{}
		for _, c := range corpora {
			install(t, tn, InstallRequest{Device: c.device, Corpus: c.corpus}, false)
			gens[c.device]++
			dev, _ := c.build()
			want := sedspec.LearnedVersion(dev.Program(), c.corpus)
			want.Generation = gens[c.device]
			want.Blob = blobs[c.device+"/"+c.corpus]
			got, ok := tn.Store().Lookup(want.Key())
			if !reflect.DeepEqual(got, want) || !ok {
				t.Errorf("%s %s: stored %+v, a learn per corpus stores %+v", name, c.corpus, got, want)
			}
			s := enforced(t, tn, c.device)
			if sealed[c.device] == nil {
				sealed[c.device] = s
			} else if s != sealed[c.device] {
				t.Errorf("%s %s: engine enforces a second sealed copy of %s", name, c.corpus, c.device)
			}
		}
	}
	if n := trainCount(d); n != 5 {
		t.Errorf("two tenants installing 14 corpora ran %d learns, want one per device", n)
	}

	tn, p := tenants[0], cvesim.Venom()
	req := InstallRequest{Corpus: "cve:" + p.CVE}
	dev, _ := p.Build()
	meta, ok := tn.Store().Lookup(sedspec.LearnedVersion(dev.Program(), req.Corpus).Key())
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
			t.Errorf("%s blob not healed: %v", damage.name, err)
		}
		install(t, tn, req, true)
	}
	if n := trainCount(d); n != 5 {
		t.Errorf("healing a damaged blob ran %d learns", n-5)
	}

	// A fresh daemon learns again, once, however many tenants race on
	// the cold device.
	fresh, _ := newWarmDaemon(t)
	defer fresh.Close()
	var wg sync.WaitGroup
	cold := make([]*Tenant, 4)
	for i := range cold {
		tn, err := fresh.CreateTenant(fmt.Sprintf("t%d", i))
		if err != nil {
			t.Fatal(err)
		}
		cold[i] = tn
		wg.Add(1)
		go func() {
			defer wg.Done()
			if info, err := tn.Install(InstallRequest{Device: "fdc"}); err != nil || info.CacheHit || info.Generation != 1 {
				t.Errorf("%s: cold install: %+v, %v", tn.Name(), info, err)
			}
		}()
	}
	wg.Wait()
	if n := trainCount(fresh); n != 1 {
		t.Errorf("four concurrent cold installs of fdc ran %d learns, want 1", n)
	}
	for _, tn := range cold[1:] {
		if enforced(t, tn, "fdc") != enforced(t, cold[0], "fdc") {
			t.Errorf("%s enforces a second sealed copy of fdc", tn.Name())
		}
	}
}
