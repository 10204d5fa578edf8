package daemon_test

import (
	"bufio"
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sedspec/internal/cvesim"
	"sedspec/internal/daemon"
	"sedspec/internal/obs/journal"
	"sedspec/internal/obs/stream"
)

// detectedPoC returns a case-study PoC whose protected replay blocks
// the attack — the anomaly whose post-restart survival the journal
// exists to guarantee.
func detectedPoC(t *testing.T) *cvesim.PoC {
	t.Helper()
	for _, p := range cvesim.All() {
		want, err := p.RunProtected()
		if err != nil {
			continue
		}
		if want.Detected {
			return p
		}
	}
	t.Fatal("no detected PoC available")
	return nil
}

// TestDaemonRestartFidelity is the acceptance test for durable
// telemetry: run a PoC session to a blocked anomaly, close the daemon,
// start a fresh one (new hub, new registry — only the disk survives)
// against the same store, and require that the pre-restart anomaly is
// visible with its original seq, tenant, and SpecGen stamps in the
// hub's recent ring (what `sedspec watch -recent` reads), in /journal,
// and in the /fleet per-tenant row counts.
func TestDaemonRestartFidelity(t *testing.T) {
	storeRoot := t.TempDir()
	jdir := filepath.Join(storeRoot, ".journal")
	poc := detectedPoC(t)

	// First life: PoC session to a verdict, then a clean shutdown.
	d1 := newTestDaemon(t, daemon.Options{
		StoreRoot:    storeRoot,
		DrainTimeout: 30 * time.Second,
		Journal:      journal.Options{Dir: jdir, Fsync: journal.PolicyAlways},
	})
	tn, err := d1.CreateTenant("prod")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Install(daemon.InstallRequest{Corpus: "cve:" + poc.CVE, Budget: 200_000}); err != nil {
		t.Fatal(err)
	}
	ss, err := tn.Attach(daemon.AttachRequest{Device: poc.Device, Workload: "poc"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for ss[0].Status().Verdict == nil {
		if time.Now().After(deadline) {
			t.Fatalf("no verdict: %+v", ss[0].Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := tn.Detach(ss[0].ID); err != nil {
		t.Fatal(err)
	}

	// Capture the anomaly's original stamps from the first hub.
	var orig *stream.Event
	for _, ev := range hubRecent(d1) {
		if ev.Kind == stream.KindAnomaly && ev.Tenant == "prod" {
			ev := ev
			orig = &ev
			break
		}
	}
	if orig == nil {
		t.Fatal("no anomaly event in the first daemon's recent ring")
	}
	if err := d1.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}

	// Second life: everything in-memory is new; only the store directory
	// (specs + journal) carries over.
	d2 := newTestDaemon(t, daemon.Options{
		StoreRoot:    storeRoot,
		DrainTimeout: 30 * time.Second,
		Journal:      journal.Options{Dir: jdir, Fsync: journal.PolicyAlways},
	})
	defer d2.Close()

	// 1. /journal (what `sedspec logs` reads) carries the pre-restart
	// anomaly, stamps intact.
	var restored *stream.Event
	for _, ev := range hubRecent(d2) {
		if ev.Kind == stream.KindAnomaly && ev.Seq == orig.Seq {
			ev := ev
			restored = &ev
			break
		}
	}
	if restored == nil {
		t.Fatalf("anomaly seq %d absent from restored recent ring", orig.Seq)
	}
	if restored.Tenant != orig.Tenant || restored.SpecGen != orig.SpecGen ||
		restored.Device != orig.Device || restored.TimeNs != orig.TimeNs {
		t.Fatalf("restored anomaly stamps diverged:\n got %+v\nwant %+v", restored, orig)
	}
	if restored.Anomaly == nil || restored.Anomaly.Strategy != orig.Anomaly.Strategy {
		t.Fatalf("restored anomaly payload diverged: %+v", restored.Anomaly)
	}

	// New events must sequence past restored history, not collide with it.
	if seq := d2.Journal().Stats().LastSeq; seq < orig.Seq {
		t.Fatalf("journal last seq %d below restored anomaly %d", seq, orig.Seq)
	}

	// 2. /journal serves the anomaly over HTTP with the original stamps.
	rec := httptest.NewRecorder()
	d2.Server().ServeHTTP(rec, httptest.NewRequest("GET", "/journal?kinds=anomaly&tenant=prod", nil))
	if rec.Code != 200 {
		t.Fatalf("/journal: %d %s", rec.Code, rec.Body.String())
	}
	found := false
	sc := bufio.NewScanner(strings.NewReader(rec.Body.String()))
	for sc.Scan() {
		var ev stream.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad /journal line %q: %v", sc.Text(), err)
		}
		if ev.Seq == orig.Seq && ev.Tenant == orig.Tenant && ev.SpecGen == orig.SpecGen {
			found = true
		}
	}
	if !found {
		t.Fatalf("/journal did not serve anomaly seq %d", orig.Seq)
	}

	// 3. /fleet's per-tenant row folds the pre-restart history back in:
	// the blocked count and rounds survive even though the registry is
	// brand new.
	var fleet stream.FleetSnapshot
	rec = httptest.NewRecorder()
	d2.Server().ServeHTTP(rec, httptest.NewRequest("GET", "/fleet?tenant=prod", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &fleet); err != nil {
		t.Fatalf("/fleet decode: %v", err)
	}
	row := fleet.Device(poc.Device)
	if row == nil {
		t.Fatalf("no %s row in restored /fleet?tenant=prod: %+v", poc.Device, fleet.Devices)
	}
	if row.Tenant != "prod" || row.Blocked == 0 || row.Rounds == 0 {
		t.Fatalf("restored fleet row lost history: %+v", row)
	}
	if fleet.Journal == nil || fleet.Journal.Records == 0 {
		t.Fatalf("fleet snapshot missing journal status: %+v", fleet.Journal)
	}
}

// hubRecent reads a daemon's event history through /journal, the
// surface `sedspec logs` reads.
func hubRecent(d *daemon.Daemon) []stream.Event {
	rec := httptest.NewRecorder()
	d.Server().ServeHTTP(rec, httptest.NewRequest("GET", "/journal?limit=0&kinds=anomaly,audit,swap,attach,detach,spec", nil))
	var out []stream.Event
	sc := bufio.NewScanner(strings.NewReader(rec.Body.String()))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev stream.Event
		if json.Unmarshal([]byte(line), &ev) == nil {
			out = append(out, ev)
		}
	}
	return out
}
