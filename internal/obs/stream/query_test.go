package stream_test

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"sedspec/internal/obs"
	"sedspec/internal/obs/journal"
	"sedspec/internal/obs/stream"
)

// FuzzEventQuery drives GET /journal?<query> against both history
// sources: the hub's recent ring and a disk journal fed by the same
// hub. Only 200 or 400 may come back, nothing may panic, and every
// returned line must decode to an event that matches the parsed
// filter, oldest first, within the limit, and both sources must answer
// alike. follow is stripped: a fuzz input must not hold a stream open.
func FuzzEventQuery(f *testing.F) {
	for _, seed := range []string{
		"", "kinds=anomaly", "kinds=anomaly,swap&tenant=prod", "tenant=prod&device=fdc",
		"since=1500&until=9000", "min_seq=5&limit=3", "limit=0", "limit=-1", "limit=x",
		"stats=1", "since=15m", "until=2026-01-01T00:00:00Z", "kinds=bogus", "min_seq=x",
		"device=ehci&kinds=health", "since=1h&until=30m", "follow=1&limit=2", "%zz",
	} {
		f.Add(seed)
	}
	hub := stream.NewHub()
	j, err := journal.Open(journal.Options{Dir: f.TempDir(), Fsync: journal.PolicyNone})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = j.Close() })
	j.Attach(hub)
	tenants, devices := []string{"prod", "edge", ""}, []string{"fdc", "ehci", ""}
	for i := 0; i < 24; i++ {
		ev := stream.Event{TimeNs: int64(1000 * (i + 1)), Kind: stream.Kind(i % int(stream.KindDrop)),
			Tenant: tenants[i%3], Device: devices[i/3%3], Session: i}
		if ev.Kind == stream.KindAnomaly {
			ev.Anomaly = &stream.AnomalyInfo{Strategy: "parameter-check", Round: uint64(i)}
		}
		hub.Publish(ev)
	}
	names := []string{"ring", "journal"}
	sources := []*stream.Server{
		stream.NewServer(stream.ServerOptions{Registry: obs.NewRegistry(), Hub: hub}),
		stream.NewServer(stream.ServerOptions{Registry: obs.NewRegistry(), Hub: hub, History: j}),
	}
	f.Fuzz(func(t *testing.T, raw string) {
		req := httptest.NewRequest("GET", "/journal", nil)
		req.URL.RawQuery = raw
		v := req.URL.Query()
		v.Del("follow")
		req.URL.RawQuery = v.Encode()
		var bodies [2]string
		for i, s := range sources {
			name := names[i]
			before, _, errBefore := stream.ParseQuery(v)
			w := httptest.NewRecorder()
			s.ServeHTTP(w, req)
			after, _, _ := stream.ParseQuery(v)
			switch w.Code {
			case http.StatusBadRequest:
				continue
			case http.StatusOK:
			default:
				t.Fatalf("%s: /journal?%s = %d", name, req.URL.RawQuery, w.Code)
			}
			if v.Get("stats") == "1" {
				continue // the journal's Stats, not events
			}
			bodies[i] = w.Body.String()
			if errBefore != nil {
				t.Fatalf("%s: /journal?%s = 200, but the query does not parse: %v", name, req.URL.RawQuery, errBefore)
			}
			// A relative time bound moves with the clock: the server's
			// since lies between the two parses, and so does its until.
			q := before
			q.UntilNs = after.UntilNs
			var n int
			var last uint64
			sc := bufio.NewScanner(w.Body)
			for sc.Scan() {
				var ev stream.Event
				if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
					t.Fatalf("%s: undecodable line %q: %v", name, sc.Text(), err)
				}
				if !q.Matches(&ev) || ev.Seq <= last {
					t.Fatalf("%s: /journal?%s returned seq %d (after %d), outside the filter %+v", name, req.URL.RawQuery, ev.Seq, last, q)
				}
				last = ev.Seq
				n++
			}
			if q.Limit > 0 && n > q.Limit {
				t.Fatalf("%s: /journal?%s returned %d events, limit %d", name, req.URL.RawQuery, n, q.Limit)
			}
		}
		// Every event fits the recent ring, so both sources hold the same
		// history and must answer alike.
		if bodies[0] != bodies[1] {
			t.Fatalf("/journal?%s: the ring answered\n%s\nthe journal answered\n%s", req.URL.RawQuery, bodies[0], bodies[1])
		}
	})
}
