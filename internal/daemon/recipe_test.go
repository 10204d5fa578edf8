package daemon

import (
	"sync"
	"testing"
	"time"

	"sedspec/internal/cvesim"
	"sedspec/internal/obs/stream"
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
