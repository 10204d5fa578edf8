package stream

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sedspec/internal/obs"
)

func testServer(t *testing.T) (*Server, *obs.Registry, *Hub) {
	t.Helper()
	reg := obs.NewRegistry()
	hub := NewHub()
	feed(reg, "fdc", 50)
	s := NewServer(ServerOptions{Registry: reg, Hub: hub})
	return s, reg, hub
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	return w
}

// TestEndpoints walks the introspection surface in-process.
func TestEndpoints(t *testing.T) {
	s, _, hub := testServer(t)
	hub.Publish(Event{Kind: KindAnomaly, Device: "fdc", Anomaly: &AnomalyInfo{Strategy: "parameter-check"}})
	// Nothing publishes health records any more, but a journal from an
	// older build restores them into the recent ring.
	hub.Publish(Event{Kind: KindHealth, Session: -1, Health: &FleetSnapshot{}})

	w := get(t, s, "/healthz")
	if w.Code != http.StatusOK {
		t.Fatalf("/healthz = %d: %s", w.Code, w.Body)
	}
	var hz struct {
		Status  string `json:"status"`
		Devices int    `json:"devices"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &hz); err != nil || hz.Status != "ok" || hz.Devices != 1 {
		t.Errorf("/healthz body %s (%v)", w.Body, err)
	}

	w = get(t, s, "/fleet")
	var fleet FleetSnapshot
	if err := json.Unmarshal(w.Body.Bytes(), &fleet); err != nil {
		t.Fatalf("/fleet: %v", err)
	}
	if fleet.Device("fdc") == nil || fleet.Device("fdc").Rounds != 52 {
		t.Errorf("/fleet rollup: %+v", fleet.Devices)
	}
	if fleet.Build.GoVersion == "" || !strings.Contains(w.Body.String(), `"go_version"`) {
		t.Errorf("/fleet carries no build.go_version: %s", w.Body)
	}

	w = get(t, s, "/metrics")
	if ct := w.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content type %q", ct)
	}
	if err := ValidateExposition(w.Body); err != nil {
		t.Errorf("/metrics exposition invalid: %v", err)
	}

	// /journal without a disk journal reads the recent ring: NDJSON,
	// oldest first, every kind by default (health records too).
	w = get(t, s, "/journal")
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	if len(lines) != 2 || w.Header().Get(SeqHeader) != "2" {
		t.Fatalf("/journal returned %d lines, %s %q: %q", len(lines), SeqHeader, w.Header().Get(SeqHeader), lines)
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil || ev.Kind != KindAnomaly {
		t.Errorf("/journal line %q (%v)", lines[0], err)
	}
	if w = get(t, s, "/journal?kinds=anomaly"); strings.Count(w.Body.String(), "\n") != 1 || strings.Contains(w.Body.String(), `"kind":"health"`) {
		t.Errorf("kinds=anomaly returned %q", w.Body)
	}
	w = get(t, s, "/journal?kinds=health")
	if !strings.Contains(w.Body.String(), `"kind":"health"`) || strings.Contains(w.Body.String(), `"kind":"anomaly"`) {
		t.Errorf("kinds=health returned %q", w.Body)
	}
	// limit keeps the oldest matches.
	if w = get(t, s, "/journal?limit=1"); !strings.Contains(w.Body.String(), `"kind":"anomaly"`) || strings.Count(w.Body.String(), "\n") != 1 {
		t.Errorf("limit=1 returned %q", w.Body)
	}

	if w = get(t, s, "/journal?kinds=bogus"); w.Code != http.StatusBadRequest {
		t.Errorf("bad kinds = %d", w.Code)
	}
	if w = get(t, s, "/journal?limit=x"); w.Code != http.StatusBadRequest {
		t.Errorf("bad limit = %d", w.Code)
	}
	if w = get(t, s, "/journal?stats=1"); w.Code != http.StatusBadRequest {
		t.Errorf("stats without a disk journal = %d", w.Code)
	}
	if w = get(t, s, "/journal?follow=1&until=1h"); w.Code != http.StatusBadRequest {
		t.Errorf("follow with until = %d", w.Code)
	}
	if w = get(t, s, "/anomalies"); w.Code != http.StatusNotFound {
		t.Errorf("/anomalies = %d, want 404: /journal is the one event read endpoint", w.Code)
	}
	if w = get(t, s, "/debug/pprof/cmdline"); w.Code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d", w.Code)
	}
}

// TestJournalFollow tails the live stream over a real listener: the
// client must see events published after it attached, in order, as
// NDJSON lines.
func TestJournalFollow(t *testing.T) {
	s, _, hub := testServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	t.Run("ndjson", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/journal?follow=1&kinds=audit", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()

		// Publish until the subscriber is attached (the GET races the
		// subscription), then a recognizable tail.
		go func() {
			for i := 0; ; i++ {
				hub.Publish(Event{Kind: KindAudit, Device: "fdc", Session: i,
					Audit: &AuditInfo{Strategy: "parameter-check", Round: uint64(i)}})
				select {
				case <-ctx.Done():
					return
				case <-time.After(time.Millisecond):
				}
			}
		}()

		sc := bufio.NewScanner(resp.Body)
		var last int = -1
		for n := 0; n < 5 && sc.Scan(); n++ {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				n--
				continue
			}
			var ev Event
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("bad line %q: %v", line, err)
			}
			if ev.Kind != KindAudit {
				t.Fatalf("kind filter leaked %v", ev.Kind)
			}
			if ev.Session <= last {
				t.Fatalf("events out of order: %d after %d", ev.Session, last)
			}
			last = ev.Session
		}
		if err := sc.Err(); err != nil && ctx.Err() == nil {
			t.Fatal(err)
		}
		if last < 0 {
			t.Fatal("no events received")
		}
	})
}

// TestFollowDropNotice: a lagging tail is told how many events it
// missed via synthesized kind="drop" records.
func TestFollowDropNotice(t *testing.T) {
	reg := obs.NewRegistry()
	hub := NewHub()
	// A 2-slot tail ring so the burst below overwhelms it.
	defer SetFollowBuffer(2)()
	s := NewServer(ServerOptions{Registry: reg, Hub: hub})
	ts := httptest.NewServer(s)
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET",
		ts.URL+"/journal?follow=1&kinds=audit", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Wait for the tail to attach, then burst until the hub records a
	// drop against it (bursts of 50 through a 2-slot ring shed almost
	// immediately; the loop bounds the rare schedule where the handler
	// keeps up).
	deadline := time.Now().Add(5 * time.Second)
	for hub.Stats().Subscribers == 0 {
		if time.Now().After(deadline) {
			t.Fatal("tail never subscribed")
		}
		time.Sleep(time.Millisecond)
	}
	session := 0
	for hub.Stats().TotalDropped == 0 {
		if time.Now().After(deadline) {
			t.Fatal("tail never fell behind")
		}
		for i := 0; i < 50; i++ {
			hub.Publish(Event{Kind: KindAudit, Session: session, Audit: &AuditInfo{}})
			session++
		}
	}

	sc := bufio.NewScanner(resp.Body)
	var dropped uint64
	for dropped == 0 && sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		if ev.Kind == KindDrop {
			if ev.Dropped == 0 || ev.Session != -1 {
				t.Errorf("malformed drop notice %+v", ev)
			}
			dropped += ev.Dropped
		}
	}
	if dropped == 0 {
		t.Fatal("no drop notice despite an overwhelmed tail ring")
	}
	if hubDropped := hub.Stats().TotalDropped; dropped > hubDropped {
		t.Errorf("wire reported %d dropped, hub counted %d", dropped, hubDropped)
	}
}

// TestTwoServersCoexist is the regression for the double-registration
// panic: two servers (the old obs.ServeDebug pattern would panic on the
// second http.HandleFunc) must build and serve independently.
func TestTwoServersCoexist(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("second server panicked: %v", r)
		}
	}()
	a := NewServer(ServerOptions{Registry: obs.NewRegistry()})
	b := NewServer(ServerOptions{Registry: obs.NewRegistry()})
	for _, s := range []*Server{a, b} {
		if w := get(t, s, "/healthz"); w.Code != http.StatusOK {
			t.Errorf("server %p /healthz = %d", s, w.Code)
		}
	}

	// And over real listeners, as two CLIs in one process would.
	s1, err := Serve("127.0.0.1:0", ServerOptions{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := Serve("127.0.0.1:0", ServerOptions{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s1.Addr() == s2.Addr() || s1.Addr() == "" {
		t.Fatalf("listener addresses: %q, %q", s1.Addr(), s2.Addr())
	}
	for _, addr := range []string{s1.Addr(), s2.Addr()} {
		resp, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s /healthz = %d", addr, resp.StatusCode)
		}
	}
}
