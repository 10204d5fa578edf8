package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sedspec/internal/obs"
	"sedspec/internal/obs/stream"
)

// captureStdout redirects os.Stdout around fn so the watcher's printed
// events can be asserted on.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	var buf bytes.Buffer
	done := make(chan struct{})
	go func() {
		_, _ = io.Copy(&buf, r)
		close(done)
	}()
	ferr := fn()
	_ = w.Close()
	<-done
	os.Stdout = old
	return buf.String(), ferr
}

// seqsOf parses the -json output lines back into their sequence
// numbers, in print order.
func seqsOf(t *testing.T, out string) []uint64 {
	t.Helper()
	var seqs []uint64
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if line == "" {
			continue
		}
		var ev stream.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("undecodable output line %q: %v", line, err)
		}
		seqs = append(seqs, ev.Seq)
	}
	return seqs
}

func wantSeqs(t *testing.T, out string, want ...uint64) {
	t.Helper()
	got := seqsOf(t, out)
	if len(got) != len(want) {
		t.Fatalf("printed seqs %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("printed seqs %v, want %v", got, want)
		}
	}
}

// scriptedServer answers /journal with a script and fails the test on
// any other path. The script receives the request's query and a
// writer for NDJSON events; each request's query is recorded.
type scriptedServer struct {
	*httptest.Server
	mu      sync.Mutex
	queries []url.Values
}

func newScriptedServer(t *testing.T, script func(q url.Values, emit func(...stream.Event))) *scriptedServer {
	t.Helper()
	ss := &scriptedServer{}
	ss.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/journal" {
			t.Errorf("request to %s: the client reads only /journal", r.URL.Path)
			http.NotFound(w, r)
			return
		}
		ss.mu.Lock()
		ss.queries = append(ss.queries, r.URL.Query())
		ss.mu.Unlock()
		enc := json.NewEncoder(w)
		script(r.URL.Query(), func(evs ...stream.Event) {
			for i := range evs {
				_ = enc.Encode(&evs[i])
			}
		})
	}))
	t.Cleanup(ss.Server.Close)
	return ss
}

// requests returns the queries of every request so far.
func (ss *scriptedServer) requests() []url.Values {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return append([]url.Values(nil), ss.queries...)
}

// anomalies builds prod/fdc anomaly events with the given seqs.
func anomalies(seqs ...uint64) []stream.Event {
	out := make([]stream.Event, len(seqs))
	for i, s := range seqs {
		out[i] = stream.Event{Seq: s, Kind: stream.KindAnomaly, Tenant: "prod", Device: "fdc"}
	}
	return out
}

// liveServer is a real introspection server without a disk journal —
// what sedfuzz, sedbench and sedspec -listen serve — behind a handler
// that records every request path and query. swap replaces the server
// (a process restart). cutAfter ends the next response after n lines,
// as a dropped connection would, and runs then once the cut lands.
type liveServer struct {
	*httptest.Server
	srv  atomic.Pointer[stream.Server]
	hub  atomic.Pointer[stream.Hub]
	mu   sync.Mutex
	reqs []*url.URL
	cut  *cutWriter
}

func newLiveServer(t *testing.T) *liveServer {
	t.Helper()
	ls := &liveServer{}
	ls.swap()
	ls.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ls.mu.Lock()
		ls.reqs = append(ls.reqs, r.URL)
		cw := ls.cut
		ls.cut = nil
		ls.mu.Unlock()
		if cw != nil {
			ctx, cancel := context.WithCancel(r.Context())
			defer cancel()
			cw.ResponseWriter, cw.cancel = w, cancel
			w, r = cw, r.WithContext(ctx)
		}
		ls.srv.Load().ServeHTTP(w, r)
	}))
	t.Cleanup(ls.Server.Close)
	return ls
}

// swap starts a fresh server process: a new hub, its sequence counter
// back at zero.
func (ls *liveServer) swap() *stream.Hub {
	hub := stream.NewHub()
	ls.hub.Store(hub)
	ls.srv.Store(stream.NewServer(stream.ServerOptions{Registry: obs.NewRegistry(), Hub: hub}))
	return hub
}

// publish puts prod/fdc anomalies (or, with tenant "edge", edge ones)
// into the current hub.
func (ls *liveServer) publish(tenant string, n int) {
	for i := 0; i < n; i++ {
		ls.hub.Load().Publish(stream.Event{Kind: stream.KindAnomaly, Tenant: tenant, Device: "fdc"})
	}
}

// onSubscribe runs fn once the follow stream has subscribed to the
// current hub.
func (ls *liveServer) onSubscribe(fn func()) {
	hub := ls.hub.Load()
	go func() {
		for hub.Stats().Subscribers == 0 {
			time.Sleep(time.Millisecond)
		}
		fn()
	}()
}

func (ls *liveServer) cutAfter(lines int, then func()) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.cut = &cutWriter{lines: lines, then: then}
}

func (ls *liveServer) requests() []*url.URL {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return append([]*url.URL(nil), ls.reqs...)
}

// cutWriter passes lines lines through, then cancels the request and
// fails every write.
type cutWriter struct {
	http.ResponseWriter
	lines  int
	then   func()
	cancel func()
}

var errCut = errors.New("connection cut")

func (w *cutWriter) Write(p []byte) (int, error) {
	if w.lines <= 0 {
		return 0, errCut
	}
	w.lines -= bytes.Count(p, []byte{'\n'})
	n, err := w.ResponseWriter.Write(p)
	if w.lines <= 0 {
		w.then()
		w.cancel()
	}
	return n, err
}

func (w *cutWriter) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

// TestWatchSinceSplicesJournal pins -follow -since: one /journal
// request carries the bound and follow=1, and the server's spliced
// history and tail print in order.
func TestWatchSinceSplicesJournal(t *testing.T) {
	ts := newScriptedServer(t, func(_ url.Values, emit func(...stream.Event)) {
		emit(anomalies(1, 2, 3, 4, 5, 6)...)
	})
	out, err := captureStdout(t, func() error {
		return runLogs([]string{"-json", "-n", "6", "-follow", "-since", "15m", ts.URL})
	})
	if err != nil {
		t.Fatalf("runLogs: %v", err)
	}
	wantSeqs(t, out, 1, 2, 3, 4, 5, 6)
	if q := ts.requests()[0]; q.Get("since") != "15m" || q.Get("follow") != "1" {
		t.Errorf("journal query %v, want since=15m follow=1", q)
	}
}

// TestWatchSinceFallsBackWithoutJournal: a server without a disk
// journal serves /journal from the hub's recent ring, where -since
// applies as it does on disk; the live tail follows the ring.
func TestWatchSinceFallsBackWithoutJournal(t *testing.T) {
	ls := newLiveServer(t)
	hub := ls.hub.Load()
	hub.Publish(stream.Event{TimeNs: 1, Kind: stream.KindAnomaly, Device: "fdc"}) // before -since
	ls.publish("prod", 2)
	ls.onSubscribe(func() { ls.publish("prod", 1) })
	out, err := captureStdout(t, func() error {
		return runLogs([]string{"-json", "-n", "3", "-follow", "-since", "15m", "-retry-max", "50ms", ls.URL})
	})
	if err != nil {
		t.Fatalf("runLogs: %v", err)
	}
	wantSeqs(t, out, 2, 3, 4)
}

// TestWatchRecentOneShot: without -follow, a journal-less server's
// recent ring prints once: one request, no follow, no retry loop.
func TestWatchRecentOneShot(t *testing.T) {
	ls := newLiveServer(t)
	ls.publish("prod", 3)
	out, err := captureStdout(t, func() error {
		return runLogs([]string{"-json", ls.URL})
	})
	if err != nil {
		t.Fatalf("runLogs: %v", err)
	}
	wantSeqs(t, out, 1, 2, 3)
	if reqs := ls.requests(); len(reqs) != 1 || reqs[0].Query().Get("follow") != "" {
		t.Fatalf("requests %v, want one history read", reqs)
	}
}

// TestWatchReconnectResumes cuts the follow stream after three events
// of a journal-less server, publishes two more while the client is
// down, and asserts the reconnect asks for min_seq=4 and prints each
// event exactly once.
func TestWatchReconnectResumes(t *testing.T) {
	ls := newLiveServer(t)
	ls.publish("prod", 3)
	ls.cutAfter(3, func() { ls.publish("prod", 2) })
	out, err := captureStdout(t, func() error {
		return runLogs([]string{"-json", "-n", "5", "-follow", "-retry-max", "50ms", ls.URL})
	})
	if err != nil {
		t.Fatalf("runLogs: %v", err)
	}
	wantSeqs(t, out, 1, 2, 3, 4, 5)
	reqs := ls.requests()
	if len(reqs) != 2 || reqs[0].Query().Get("min_seq") != "" || reqs[1].Query().Get("min_seq") != "4" {
		t.Fatalf("requests %v, want a first read, then one resuming at min_seq=4", reqs)
	}
}

// TestWatchDetectsServerRestart replaces a journal-less server with a
// fresh process whose newest sequence is below the client's cursor, and
// asserts the cursor resets instead of suppressing everything the new
// process publishes.
func TestWatchDetectsServerRestart(t *testing.T) {
	ls := newLiveServer(t)
	ls.publish("prod", 11)
	ls.cutAfter(11, func() {
		ls.swap()
		ls.publish("prod", 2) // the new process: newest seq 2 < cursor 11
	})
	out, err := captureStdout(t, func() error {
		return runLogs([]string{"-json", "-n", "13", "-follow", "-retry-max", "50ms", ls.URL})
	})
	if err != nil {
		t.Fatalf("runLogs: %v", err)
	}
	wantSeqs(t, out, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 1, 2)
	reqs := ls.requests()
	if len(reqs) != 3 || reqs[1].Query().Get("min_seq") != "12" || reqs[2].Query().Get("min_seq") != "" {
		t.Fatalf("requests %v, want a read, a resume at min_seq=12, then a read from the beginning", reqs)
	}
}

// TestLogsOneShot pins `sedspec logs` without -follow: one journal
// query carrying every filter, no stream request afterwards.
func TestLogsOneShot(t *testing.T) {
	ts := newScriptedServer(t, func(_ url.Values, emit func(...stream.Event)) {
		emit(anomalies(7, 8, 9)...)
	})
	out, err := captureStdout(t, func() error {
		return runLogs([]string{"-json", "-since", "1h", "-kinds", "anomaly", "-tenant", "prod", "-device", "fdc", ts.URL})
	})
	if err != nil {
		t.Fatalf("runLogs: %v", err)
	}
	wantSeqs(t, out, 7, 8, 9)
	reqs := ts.requests()
	if len(reqs) != 1 {
		t.Fatalf("%d requests, want 1", len(reqs))
	}
	q := reqs[0]
	for param, want := range map[string]string{
		"since": "1h", "kinds": "anomaly", "tenant": "prod", "device": "fdc", "limit": "0", "follow": "",
	} {
		if got := q.Get(param); got != want {
			t.Errorf("journal %s param %q, want %q", param, got, want)
		}
	}
}

// TestLogsFollowSplices pins -follow against a real journal-less
// server: history prints, then the live tail, exactly once each.
func TestLogsFollowSplices(t *testing.T) {
	ls := newLiveServer(t)
	ls.publish("prod", 3)
	ls.onSubscribe(func() { ls.publish("prod", 2) })
	out, err := captureStdout(t, func() error {
		return runLogs([]string{"-json", "-n", "5", "-follow", ls.URL})
	})
	if err != nil {
		t.Fatalf("runLogs: %v", err)
	}
	wantSeqs(t, out, 1, 2, 3, 4, 5)
}

// TestLogsTenantFilterAppliesToLiveTail: -tenant filters the live
// tail on the server, as it filters history.
func TestLogsTenantFilterAppliesToLiveTail(t *testing.T) {
	ls := newLiveServer(t)
	ls.publish("prod", 1)
	// Once the follow stream has subscribed: an edge event the tail
	// must filter, then a prod one.
	ls.onSubscribe(func() {
		ls.publish("edge", 1)
		ls.publish("prod", 1)
	})
	out, err := captureStdout(t, func() error {
		return runLogs([]string{"-json", "-n", "2", "-tenant", "prod", "-follow", ls.URL})
	})
	if err != nil {
		t.Fatalf("runLogs: %v", err)
	}
	wantSeqs(t, out, 1, 3)
}

// TestLogsFollowSurfacesDropNotice: a lagging tail's drop notice
// carries no sequence number and no tenant, yet prints, or the shed
// events go unseen.
func TestLogsFollowSurfacesDropNotice(t *testing.T) {
	ts := newScriptedServer(t, func(_ url.Values, emit func(...stream.Event)) {
		emit(anomalies(1)...)
		emit(stream.Event{Kind: stream.KindDrop, Session: -1, Dropped: 4})
		emit(anomalies(6)...)
	})
	out, err := captureStdout(t, func() error {
		return runLogs([]string{"-json", "-n", "3", "-tenant", "prod", "-follow", ts.URL})
	})
	if err != nil {
		t.Fatalf("runLogs: %v", err)
	}
	wantSeqs(t, out, 1, 0, 6)
	if !strings.Contains(out, `"kind":"drop"`) || !strings.Contains(out, `"dropped":4`) {
		t.Fatalf("drop notice not printed:\n%s", out)
	}
}

// TestLogsNoJournal: a server without a disk journal (-journal off, or
// any -listen introspection server) answers /journal from the hub's
// recent ring with the same server-side filters: -kinds and -tenant
// select there too.
func TestLogsNoJournal(t *testing.T) {
	ls := newLiveServer(t)
	hub := ls.hub.Load()
	ls.publish("prod", 1)
	ls.publish("edge", 1)
	hub.Publish(stream.Event{Kind: stream.KindAttach, Tenant: "prod", Device: "fdc"})
	ls.publish("prod", 1)
	out, err := captureStdout(t, func() error {
		return runLogs([]string{"-json", "-kinds", "anomaly", "-tenant", "prod", ls.URL})
	})
	if err != nil {
		t.Fatalf("runLogs: %v", err)
	}
	wantSeqs(t, out, 1, 4)
}

// TestLogsReadsOnlyJournal: with and without -follow, the client
// requests /journal and nothing else, and /anomalies is gone.
func TestLogsReadsOnlyJournal(t *testing.T) {
	ls := newLiveServer(t)
	ls.publish("prod", 2)
	for _, args := range [][]string{{"-json"}, {"-json", "-follow", "-n", "2"}} {
		if _, err := captureStdout(t, func() error { return runLogs(append(args, ls.URL)) }); err != nil {
			t.Fatalf("runLogs %v: %v", args, err)
		}
	}
	reqs := ls.requests()
	if len(reqs) != 2 {
		t.Fatalf("requests %v, want two", reqs)
	}
	for _, u := range reqs {
		if u.Path != "/journal" {
			t.Errorf("request to %s, want /journal only", u)
		}
	}
	resp, err := http.Get(ls.URL + "/anomalies")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/anomalies = %d, want 404", resp.StatusCode)
	}
}

// TestLogsJournalReadErrorFails: a history read that fails mid-stream
// ends in an {"error": ...} trailer record. The client prints no event
// for it and exits non-zero with the server's message.
func TestLogsJournalReadErrorFails(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(stream.Event{Seq: 1, Kind: stream.KindAnomaly, Device: "fdc"})
		_, _ = io.WriteString(w, `{"error":"journal: read segment 3: boom"}`+"\n")
	}))
	defer ts.Close()
	for _, args := range [][]string{nil, {"-follow"}} {
		out, err := captureStdout(t, func() error { return runLogs(append(args, ts.URL)) })
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("runLogs %v: err %v, want the server's read error", args, err)
		}
		if lines := strings.Split(strings.TrimSpace(out), "\n"); len(lines) != 1 || !strings.Contains(lines[0], "anomaly") {
			t.Fatalf("runLogs %v printed %q, want the one anomaly and nothing for the trailer", args, out)
		}
	}
}

// TestLogsRejectsBeforeRequest: every flag check runs before the first
// request, so a rejected invocation neither prints history nor, with a
// non-positive -retry-max, spins reconnecting with a zero backoff.
func TestLogsRejectsBeforeRequest(t *testing.T) {
	var requests atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.NotFound(w, r)
	}))
	defer ts.Close()
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"follow-until", []string{"-follow", "-until", "1h"}, "mutually exclusive"},
		{"retry-max-zero", []string{"-follow", "-retry-max", "0"}, "-retry-max"},
		{"retry-max-negative", []string{"-retry-max", "-1s"}, "-retry-max"},
		{"bad-kinds", []string{"-kinds", "nonsense"}, "nonsense"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			requests.Store(0)
			err := runLogs(append(tc.args, ts.URL))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("runLogs %v: err %v, want one naming %q", tc.args, err, tc.want)
			}
			if n := requests.Load(); n != 0 {
				t.Fatalf("runLogs %v made %d requests before rejecting", tc.args, n)
			}
		})
	}
}
