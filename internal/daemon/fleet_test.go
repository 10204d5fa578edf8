package daemon

import (
	"bufio"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sedspec/internal/obs/stream"
)

// TestFleetRowPerTenantDevice runs one fdc engine in each of two tenants,
// runs sessions on both and detaches them. Every telemetry surface must
// then show one row per (tenant, device), each number read from its one
// source: /fleet has exactly the two tenant rows, each row's rounds are
// the sum of its sessions' final rounds and its steps histogram is
// filled, /healthz counts two devices, /metrics labels every fdc series
// with its tenant, and each engine's registry row agrees with its own
// stats.
func TestFleetRowPerTenantDevice(t *testing.T) {
	const device = "fdc"
	d, _ := newWarmDaemon(t)
	defer d.Close()
	get := func(path string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		d.Server().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes()
	}

	tenants := []string{"a", "b"}
	rounds := make(map[string]uint64)
	for i, name := range tenants {
		tn, err := d.CreateTenant(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tn.Install(InstallRequest{Device: device}); err != nil {
			t.Fatal(err)
		}
		ss, err := tn.Attach(AttachRequest{Device: device, Count: 2, Ops: uint64(20 + 10*i), Seed: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range ss {
			deadline := time.Now().Add(30 * time.Second)
			for s.Status().Rounds == 0 {
				if time.Now().After(deadline) {
					t.Fatalf("%s: session %d ran no round", name, s.ID)
				}
				time.Sleep(time.Millisecond)
			}
			st, err := tn.Detach(s.ID)
			if err != nil {
				t.Fatal(err)
			}
			rounds[name] += st.Rounds
		}
	}

	var fleet stream.FleetSnapshot
	if err := json.Unmarshal(get("/fleet"), &fleet); err != nil {
		t.Fatal(err)
	}
	if len(fleet.Devices) != len(tenants) {
		t.Fatalf("/fleet rows = %+v, want one per tenant", fleet.Devices)
	}
	for i, row := range fleet.Devices {
		name := tenants[i]
		if row.Tenant != name || row.Device != device {
			t.Errorf("row %d is %q/%s, want %s/%s", i, row.Tenant, row.Device, name, device)
		}
		if row.Rounds != rounds[name] {
			t.Errorf("%s: row rounds %d, sessions' final rounds sum to %d", name, row.Rounds, rounds[name])
		}
		if row.StepsP50 <= 0 {
			t.Errorf("%s: steps_p50 = %v, want > 0", name, row.StepsP50)
		}
	}

	var hz struct{ Devices int }
	if err := json.Unmarshal(get("/healthz"), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Devices != len(tenants) {
		t.Errorf("/healthz devices = %d, want %d", hz.Devices, len(tenants))
	}

	metrics := string(get("/metrics"))
	if !strings.Contains(metrics, `sedspec_rounds_total{device="fdc",tenant="a"} `) {
		t.Errorf("/metrics has no tenant-labelled fdc rounds:\n%s", metrics)
	}
	sc := bufio.NewScanner(strings.NewReader(metrics))
	for sc.Scan() {
		if line := sc.Text(); strings.Contains(line, `device="fdc"`) && !strings.Contains(line, `tenant="`) {
			t.Errorf("/metrics fdc series without a tenant label: %s", line)
		}
	}

	for _, name := range tenants {
		tn, _ := d.Tenant(name)
		eng, err := tn.engineFor(device)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := eng.shared.Metrics().Rounds, eng.shared.Stats().Rounds; got != want {
			t.Errorf("%s: Metrics().Rounds = %d, Stats().Rounds = %d", name, got, want)
		}
	}
}
