package daemon_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"sedspec/internal/daemon"
	"sedspec/internal/obs"
	"sedspec/internal/obs/stream"
)

// newTestDaemon builds an isolated daemon: its own hub and registry so
// parallel packages sharing the process-wide defaults cannot bleed
// events into the assertions.
func newTestDaemon(t *testing.T, opts daemon.Options) *daemon.Daemon {
	t.Helper()
	if opts.StoreRoot == "" {
		opts.StoreRoot = t.TempDir()
	}
	if opts.Hub == nil {
		opts.Hub = stream.NewHub()
	}
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	d, err := daemon.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// doJSON issues one control-plane request, asserts the status, and
// decodes the response into out (when non-nil).
func doJSON(t *testing.T, client *http.Client, method, url string, body any, wantStatus int, out any) []byte {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: got %s, want %d: %s", method, url, resp.Status, wantStatus, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: undecodable response: %v: %s", method, url, err, data)
		}
	}
	return data
}

// TestDaemonLifecycleHTTP drives the full resident lifecycle over the
// HTTP control plane: tenant create, spec install, eight concurrent
// sessions, enhance+swap and rollback under load, per-tenant fleet
// filtering, tenant-stamped events, detach, and a drain that leaves
// zero goroutines behind.
func TestDaemonLifecycleHTTP(t *testing.T) {
	base := runtime.NumGoroutine()

	d := newTestDaemon(t, daemon.Options{DrainTimeout: 20 * time.Second})
	stopPoll := daemon.PollHealth(d.Health())
	defer stopPoll()
	if err := d.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	tr := &http.Transport{}
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	url := "http://" + d.Addr()

	// Tenant + enhancement-mode engine (the mixed workload's rare
	// commands feed its audit trail).
	doJSON(t, client, "POST", url+"/tenants", map[string]string{"name": "prod"}, http.StatusCreated, nil)
	var eng daemon.EngineInfo
	doJSON(t, client, "POST", url+"/tenants/prod/specs",
		daemon.InstallRequest{Device: "fdc", Mode: "enhancement"}, http.StatusCreated, &eng)
	if eng.Generation == 0 || eng.Mode != "enhancement" {
		t.Fatalf("install: %+v", eng)
	}

	// Eight concurrent mixed sessions against the live engine.
	var attached struct {
		Sessions []daemon.SessionStatus `json:"sessions"`
	}
	doJSON(t, client, "POST", url+"/tenants/prod/sessions",
		daemon.AttachRequest{Device: "fdc", Workload: "mixed", Count: 8, Seed: 42}, http.StatusCreated, &attached)
	if len(attached.Sessions) != 8 {
		t.Fatalf("attached %d sessions, want 8", len(attached.Sessions))
	}

	// Enhance+swap under load: retry until the sessions audited enough
	// rare commands for the pipeline to have input.
	var swap daemon.SwapResult
	deadline := time.Now().Add(30 * time.Second)
	for {
		req, _ := json.Marshal(daemon.SwapRequest{Device: "fdc", Enhance: true})
		resp, err := client.Post(url+"/tenants/prod/swap", "application/json", bytes.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(data, &swap); err != nil {
				t.Fatal(err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("enhance+swap never succeeded: %s", data)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if swap.ToGen <= swap.FromGen || swap.Warnings == 0 {
		t.Fatalf("enhance swap: %+v", swap)
	}

	// Rollback to the first stored generation, still under load.
	var back daemon.SwapResult
	doJSON(t, client, "POST", url+"/tenants/prod/swap",
		daemon.SwapRequest{Device: "fdc", Generation: 1}, http.StatusOK, &back)
	if back.StoreGen != 1 {
		t.Fatalf("rollback: %+v", back)
	}

	// The sessions survived both swaps and keep making progress.
	var list struct {
		Sessions []daemon.SessionStatus `json:"sessions"`
	}
	doJSON(t, client, "GET", url+"/tenants/prod/sessions", nil, http.StatusOK, &list)
	if len(list.Sessions) != 8 {
		t.Fatalf("%d sessions after swaps, want 8", len(list.Sessions))
	}
	rounds := func(ss []daemon.SessionStatus) uint64 {
		var n uint64
		for _, s := range ss {
			if !s.Running {
				t.Fatalf("session %d not running: %+v", s.ID, s)
			}
			n += s.Rounds
		}
		return n
	}
	before := rounds(list.Sessions)
	time.Sleep(50 * time.Millisecond)
	doJSON(t, client, "GET", url+"/tenants/prod/sessions", nil, http.StatusOK, &list)
	if after := rounds(list.Sessions); after <= before {
		t.Fatalf("sessions stalled after swaps: %d -> %d rounds", before, after)
	}

	// Per-tenant fleet filtering: the engine's health row carries the
	// tenant name and survives the ?tenant= filter.
	var fleet stream.FleetSnapshot
	fleetDeadline := time.Now().Add(10 * time.Second)
	for {
		doJSON(t, client, "GET", url+"/fleet?tenant=prod", nil, http.StatusOK, &fleet)
		if len(fleet.Devices) > 0 {
			break
		}
		if time.Now().After(fleetDeadline) {
			t.Fatal("no tenant rows in /fleet?tenant=prod")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, dev := range fleet.Devices {
		if dev.Tenant != "prod" {
			t.Fatalf("/fleet?tenant=prod returned row for tenant %q", dev.Tenant)
		}
	}

	// The event stream is stamped with the tenant identity.
	resp, err := client.Get(url + "/journal?limit=256&kinds=attach,swap")
	if err != nil {
		t.Fatal(err)
	}
	tenanted := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev stream.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		if ev.Tenant == "prod" {
			tenanted++
		}
	}
	_ = resp.Body.Close()
	if tenanted == 0 {
		t.Fatal("no tenant-stamped attach/swap events in the stream")
	}

	// Detach one session; its final status folds and reports.
	var fin daemon.SessionStatus
	id := list.Sessions[0].ID
	doJSON(t, client, "DELETE", fmt.Sprintf("%s/tenants/prod/sessions/%d", url, id), nil, http.StatusOK, &fin)
	if fin.Running || fin.Rounds == 0 {
		t.Fatalf("detached session status: %+v", fin)
	}
	var status struct {
		Sessions int `json:"sessions"`
	}
	doJSON(t, client, "GET", url+"/status", nil, http.StatusOK, &status)
	if status.Sessions != 7 {
		t.Fatalf("daemon reports %d sessions after detach, want 7", status.Sessions)
	}

	// Drain: the remaining seven sessions stop, fold, and every daemon
	// goroutine exits.
	stopPoll()
	if err := d.Close(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	tr.CloseIdleConnections()
	leakDeadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			break
		} else if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak after drain: %d, baseline %d\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDaemonTenantValidationHTTP pins the control plane's edges: bad
// tenant names are rejected at creation (the store layer's traversal
// guard), duplicates conflict, and unknown tenants 404.
func TestDaemonTenantValidationHTTP(t *testing.T) {
	d := newTestDaemon(t, daemon.Options{})
	if err := d.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	url := "http://" + d.Addr()

	doJSON(t, client, "POST", url+"/tenants", map[string]string{"name": "ok-1"}, http.StatusCreated, nil)
	doJSON(t, client, "POST", url+"/tenants", map[string]string{"name": "ok-1"}, http.StatusConflict, nil)
	for _, bad := range []string{"", "../escape", "a/b", ".hidden", "-flag"} {
		doJSON(t, client, "POST", url+"/tenants", map[string]string{"name": bad}, http.StatusBadRequest, nil)
	}
	doJSON(t, client, "GET", url+"/tenants/ghost", nil, http.StatusNotFound, nil)
	doJSON(t, client, "DELETE", url+"/tenants/ghost", nil, http.StatusNotFound, nil)
	doJSON(t, client, "POST", url+"/tenants/ok-1/specs",
		daemon.InstallRequest{Device: "no-such-device"}, http.StatusBadRequest, nil)
	doJSON(t, client, "POST", url+"/tenants/ok-1/sessions",
		daemon.AttachRequest{Device: "fdc"}, http.StatusBadRequest, nil) // no engine installed
}

// TestDaemonBodyLimitsHTTP pins the control plane's request-body bounds:
// an install body over the cap gets 413, trailing data after the JSON
// value gets 400, and the server keeps serving — the next request, on a
// new connection, succeeds.
func TestDaemonBodyLimitsHTTP(t *testing.T) {
	d := newTestDaemon(t, daemon.Options{})
	if err := d.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	url := "http://" + d.Addr()
	post := func(path string, body []byte) (int, string) {
		t.Helper()
		// A fresh transport per request: each one opens its own connection.
		client := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{}}
		defer client.CloseIdleConnections()
		resp, err := client.Post(url+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		data, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		return resp.StatusCode, string(data)
	}

	if code, body := post("/tenants", []byte(`{"name":"lim"}`)); code != http.StatusCreated {
		t.Fatalf("create tenant: %d %s", code, body)
	}
	huge := []byte(`{"device":"fdc","mode":"` + strings.Repeat("x", 2<<20) + `"}`)
	if code, body := post("/tenants/lim/specs", huge); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize install body: got %d %s, want 413", code, body)
	}
	if code, body := post("/tenants/lim/specs", []byte(`{"device":"fdc"} {"device":"fdc"}`)); code != http.StatusBadRequest {
		t.Errorf("trailing data: got %d %s, want 400", code, body)
	}
	if code, body := post("/tenants/lim/specs", []byte(`{"device":"fdc"}`+"\n")); code != http.StatusCreated {
		t.Errorf("install after rejected bodies: got %d %s, want 201", code, body)
	}
}
