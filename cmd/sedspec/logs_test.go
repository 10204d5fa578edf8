package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

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

// journalServer scripts both halves of the splice: journalFn serves
// /journal (nil → 404, a server without persistence), followFn the
// /anomalies follow stream, recentFn the recent fetch. The last
// /journal query is captured for parameter assertions.
type journalServer struct {
	*httptest.Server
	mu       sync.Mutex
	journalQ url.Values
}

func newJournalServer(t *testing.T, journalFn func(emit func(...uint64)), followFn, recentFn func(call int, emit func(...uint64))) *journalServer {
	t.Helper()
	js := &journalServer{}
	var mu sync.Mutex
	followN, recentN := 0, 0
	js.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		enc := json.NewEncoder(w)
		emit := func(seqs ...uint64) {
			for _, s := range seqs {
				_ = enc.Encode(stream.Event{Seq: s, Kind: stream.KindAnomaly, Tenant: "prod", Device: "fdc"})
			}
		}
		switch r.URL.Path {
		case "/journal":
			if journalFn == nil {
				http.NotFound(w, r)
				return
			}
			js.mu.Lock()
			js.journalQ = r.URL.Query()
			js.mu.Unlock()
			journalFn(emit)
		case "/anomalies":
			follow := r.URL.Query().Get("follow") == "1"
			mu.Lock()
			var call int
			if follow {
				followN++
				call = followN
			} else {
				recentN++
				call = recentN
			}
			mu.Unlock()
			if follow {
				if followFn == nil {
					t.Error("unexpected follow request")
					return
				}
				followFn(call, emit)
			} else {
				if recentFn == nil {
					t.Error("unexpected recent request")
					return
				}
				recentFn(call, emit)
			}
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(js.Server.Close)
	return js
}

func (js *journalServer) lastJournalQuery() url.Values {
	js.mu.Lock()
	defer js.mu.Unlock()
	return js.journalQ
}

// The TestWatch* tests pin the -follow live tail: its splice onto the
// history, reconnect, restart detection and journal-less fallback.

// TestWatchSinceSplicesJournal pins -follow -since: durable history
// bounded by the -since parameter prints first, and the live tail's
// overlap with it is deduplicated by hub sequence number.
func TestWatchSinceSplicesJournal(t *testing.T) {
	ts := newJournalServer(t,
		func(emit func(...uint64)) { emit(1, 2, 3, 4) },
		func(_ int, emit func(...uint64)) { emit(3, 4, 5, 6) }, // overlaps 3,4
		nil,
	)
	out, err := captureStdout(t, func() error {
		return runLogs([]string{"-json", "-n", "6", "-follow", "-since", "15m", ts.URL})
	})
	if err != nil {
		t.Fatalf("runLogs: %v", err)
	}
	wantSeqs(t, out, 1, 2, 3, 4, 5, 6)
	if got := ts.lastJournalQuery().Get("since"); got != "15m" {
		t.Errorf("journal since param %q, want 15m", got)
	}
}

// TestWatchSinceFallsBackWithoutJournal: a server running without
// persistence 404s /journal; the history degrades to the in-memory
// recent buffer instead of failing, and the live tail follows it.
func TestWatchSinceFallsBackWithoutJournal(t *testing.T) {
	ts := newJournalServer(t,
		nil, // no /journal
		func(_ int, emit func(...uint64)) { emit(3) },
		func(_ int, emit func(...uint64)) { emit(1, 2) },
	)
	out, err := captureStdout(t, func() error {
		return runLogs([]string{"-json", "-n", "3", "-follow", "-since", "15m", ts.URL})
	})
	if err != nil {
		t.Fatalf("runLogs: %v", err)
	}
	wantSeqs(t, out, 1, 2, 3)
}

// TestWatchRecentOneShot: without -follow, a journal-less server's
// recent buffer prints once; no follow request, no retry loop.
func TestWatchRecentOneShot(t *testing.T) {
	ts := newJournalServer(t,
		nil, // no /journal
		nil, // a follow request fails the test
		func(_ int, emit func(...uint64)) { emit(1, 2, 3) },
	)
	out, err := captureStdout(t, func() error {
		return runLogs([]string{"-json", ts.URL})
	})
	if err != nil {
		t.Fatalf("runLogs: %v", err)
	}
	wantSeqs(t, out, 1, 2, 3)
}

// TestWatchReconnectResumes drops the follow stream after three events
// and asserts the reconnect replays only the events published while
// the client was down — the overlap with what was already printed is
// deduplicated by sequence number.
func TestWatchReconnectResumes(t *testing.T) {
	ts := newJournalServer(t,
		func(func(...uint64)) {}, // empty history
		func(call int, emit func(...uint64)) {
			if call == 1 {
				emit(1, 2, 3) // then close: dropped stream
				return
			}
			emit(6, 7) // not reached at -n 5, but keeps later calls alive
		},
		func(_ int, emit func(...uint64)) {
			// The server retained 2..5; 2 and 3 were already printed.
			emit(2, 3, 4, 5)
		},
	)
	out, err := captureStdout(t, func() error {
		return runLogs([]string{"-json", "-n", "5", "-follow", "-retry-max", "1s", ts.URL})
	})
	if err != nil {
		t.Fatalf("runLogs: %v", err)
	}
	wantSeqs(t, out, 1, 2, 3, 4, 5)
}

// TestWatchDetectsServerRestart gives the reconnect a recent buffer
// whose newest sequence is below the cursor — a fresh server process —
// and asserts the cursor resets instead of suppressing everything the
// new process publishes.
func TestWatchDetectsServerRestart(t *testing.T) {
	ts := newJournalServer(t,
		func(func(...uint64)) {}, // empty history
		func(call int, emit func(...uint64)) {
			if call == 1 {
				emit(10, 11) // old process, then it dies
				return
			}
			emit(3, 4) // new process's live tail
		},
		func(_ int, emit func(...uint64)) {
			emit(1, 2) // new process's retained buffer: max 2 < cursor 11
		},
	)
	out, err := captureStdout(t, func() error {
		return runLogs([]string{"-json", "-n", "5", "-follow", "-retry-max", "1s", ts.URL})
	})
	if err != nil {
		t.Fatalf("runLogs: %v", err)
	}
	wantSeqs(t, out, 10, 11, 1, 2, 3)
}

// TestLogsOneShot pins `sedspec logs` without -follow: one journal
// query carrying every filter, no stream request afterwards.
func TestLogsOneShot(t *testing.T) {
	ts := newJournalServer(t,
		func(emit func(...uint64)) { emit(7, 8, 9) },
		nil, nil,
	)
	out, err := captureStdout(t, func() error {
		return runLogs([]string{"-json", "-since", "1h", "-kinds", "anomaly", "-tenant", "prod", "-device", "fdc", ts.URL})
	})
	if err != nil {
		t.Fatalf("runLogs: %v", err)
	}
	wantSeqs(t, out, 7, 8, 9)
	q := ts.lastJournalQuery()
	for param, want := range map[string]string{
		"since": "1h", "kinds": "anomaly", "tenant": "prod", "device": "fdc", "limit": "0",
	} {
		if got := q.Get(param); got != want {
			t.Errorf("journal %s param %q, want %q", param, got, want)
		}
	}
}

// TestLogsFollowSplices pins -follow: history then the live tail,
// exactly once per event across the overlap.
func TestLogsFollowSplices(t *testing.T) {
	ts := newJournalServer(t,
		func(emit func(...uint64)) { emit(1, 2, 3) },
		func(_ int, emit func(...uint64)) { emit(2, 3, 4, 5) },
		nil,
	)
	out, err := captureStdout(t, func() error {
		return runLogs([]string{"-json", "-n", "5", "-follow", ts.URL})
	})
	if err != nil {
		t.Fatalf("runLogs: %v", err)
	}
	wantSeqs(t, out, 1, 2, 3, 4, 5)
}

// TestLogsTenantFilterAppliesToLiveTail: the live stream has no
// server-side tenant filter, so the client must drop non-matching
// events in the -follow half too.
func TestLogsTenantFilterAppliesToLiveTail(t *testing.T) {
	// Live tail mixes tenants; the journal half is server-filtered.
	mixed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		enc := json.NewEncoder(w)
		switch r.URL.Path {
		case "/journal":
			_ = enc.Encode(stream.Event{Seq: 1, Kind: stream.KindAnomaly, Tenant: "prod", Device: "fdc"})
		case "/anomalies":
			_ = enc.Encode(stream.Event{Seq: 2, Kind: stream.KindAnomaly, Tenant: "edge", Device: "fdc"})
			_ = enc.Encode(stream.Event{Seq: 3, Kind: stream.KindAnomaly, Tenant: "prod", Device: "fdc"})
		default:
			http.NotFound(w, r)
		}
	}))
	defer mixed.Close()
	out, err := captureStdout(t, func() error {
		return runLogs([]string{"-json", "-n", "2", "-tenant", "prod", "-follow", mixed.URL})
	})
	if err != nil {
		t.Fatalf("runLogs: %v", err)
	}
	wantSeqs(t, out, 1, 3)
}

// TestLogsFollowSurfacesDropNotice: a lagging tail's drop notice
// carries no sequence number and no tenant, yet must print through the
// dedup cursor and the -tenant filter, or the shed events go unseen.
func TestLogsFollowSurfacesDropNotice(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		enc := json.NewEncoder(w)
		switch r.URL.Path {
		case "/journal":
			_ = enc.Encode(stream.Event{Seq: 1, Kind: stream.KindAnomaly, Tenant: "prod", Device: "fdc"})
		case "/anomalies":
			_ = enc.Encode(stream.Event{Kind: stream.KindDrop, Session: -1, Dropped: 4})
			_ = enc.Encode(stream.Event{Seq: 6, Kind: stream.KindAnomaly, Tenant: "prod", Device: "fdc"})
		default:
			http.NotFound(w, r)
		}
	}))
	defer ts.Close()
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

// TestLogsNoJournal: a server without persistence (-journal off, or
// any -listen introspection server) 404s /journal, and the history
// falls back to the hub's recent ring. The ring has no server-side
// tenant filter, so -tenant applies client-side; -kinds rides along.
func TestLogsNoJournal(t *testing.T) {
	var ringQ atomic.Pointer[url.Values]
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/anomalies" || r.URL.Query().Get("follow") == "1" {
			http.NotFound(w, r)
			return
		}
		q := r.URL.Query()
		ringQ.Store(&q)
		enc := json.NewEncoder(w)
		_ = enc.Encode(stream.Event{Seq: 1, Kind: stream.KindAnomaly, Tenant: "prod", Device: "fdc"})
		_ = enc.Encode(stream.Event{Seq: 2, Kind: stream.KindAnomaly, Tenant: "edge", Device: "fdc"})
		_ = enc.Encode(stream.Event{Seq: 3, Kind: stream.KindAnomaly, Tenant: "prod", Device: "fdc"})
	}))
	defer ts.Close()
	out, err := captureStdout(t, func() error {
		return runLogs([]string{"-json", "-kinds", "anomaly", "-tenant", "prod", ts.URL})
	})
	if err != nil {
		t.Fatalf("runLogs: %v", err)
	}
	wantSeqs(t, out, 1, 3)
	if q := *ringQ.Load(); q.Get("kinds") != "anomaly" || q.Get("limit") != "256" {
		t.Errorf("recent ring query %v, want kinds=anomaly limit=256", q)
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
