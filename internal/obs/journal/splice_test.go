package journal

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"sedspec/internal/obs"
	"sedspec/internal/obs/stream"
)

// TestFollowSpliceExactlyOnce opens /journal?follow=1 while four
// publishers hammer the hub, so the subscribe, the history read and the
// live tail race the publishes, on both history sources:
//
//   - ring: a server without a disk journal (sedfuzz, sedspec -listen);
//   - journal: a journal-backed server, as the daemon wires it, whose
//     writer lags. In odd rounds it is not draining until the history
//     has been read, so history depends on the query appending the
//     writer's backlog; in even rounds it drains concurrently.
//
// Every seq must arrive exactly once, in order. The journal keeps every
// event, so its stream must start at seq 1; it publishes more than the
// recent ring holds first, so that history can only come from disk.
// The ring evicts, so its stream must run gap-free from wherever the
// ring began. The totals stay within the journal's ring and the tail's
// buffer, so nothing is shed.
func TestFollowSpliceExactlyOnce(t *testing.T) {
	for _, tc := range []struct {
		name    string
		journal bool
		rounds  int
	}{
		{name: "ring", rounds: 100},
		{name: "journal", journal: true, rounds: 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for round := 0; round < tc.rounds; round++ {
				hub := stream.NewHub()
				opts := stream.ServerOptions{Registry: obs.NewRegistry(), Hub: hub}
				var j *Journal
				lagging := round%2 == 1
				startWriter := func() {}
				if tc.journal {
					j = mustOpen(t, Options{Dir: t.TempDir(), Fsync: PolicyNone})
					j.sub = hub.Subscribe(stream.WithKinds(persisted), stream.WithBuffer(subBuffer))
					opts.History = j
					startWriter = func() {
						j.wg.Add(1)
						go j.drain(j.sub)
					}
					for i := 0; i < stream.RecentCap+44; i++ {
						hub.Publish(stream.Event{Kind: stream.KindAnomaly, Tenant: "prod", Device: "fdc"})
					}
					if !lagging {
						startWriter()
						startWriter = func() {}
					}
				}
				ts := httptest.NewServer(stream.NewServer(opts))
				msg := hammerAndFollow(t, hub, ts.URL, tc.journal, startWriter)
				ts.Close()
				if j != nil {
					if err := j.Close(); err != nil {
						t.Fatal(err)
					}
				}
				if msg != "" {
					t.Fatalf("round %d: %s", round, msg)
				}
			}
		})
	}
}

// hammerAndFollow opens a follow stream on base while four publishers
// publish 150 events apiece, runs afterHistory once the history has
// been sent, and reads the stream up to the hub's final seq. It returns
// "" when the stream carried every seq from its first (1 when fromOne)
// to the final one exactly once, in order, else what went wrong.
func hammerAndFollow(t *testing.T, hub *stream.Hub, base string, fromOne bool, afterHistory func()) string {
	t.Helper()
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				hub.Publish(stream.Event{Kind: stream.KindAudit, Tenant: "prod", Device: "fdc"})
				runtime.Gosched()
			}
		}()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", base+"/journal?follow=1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	afterHistory() // the server flushes its headers once the history is out
	wg.Wait()
	final := hub.Seq()
	var next uint64
	sc := bufio.NewScanner(resp.Body)
	for (next == 0 || next <= final) && sc.Scan() {
		var ev stream.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Sprintf("bad line %q: %v", sc.Text(), err)
		}
		if next == 0 {
			next = 1
			if !fromOne {
				next = ev.Seq
			}
		}
		if ev.Seq != next {
			return fmt.Sprintf("got %s, want seq %d", sc.Text(), next)
		}
		next++
	}
	if next <= final {
		return fmt.Sprintf("stream ended before seq %d of %d", next, final)
	}
	return ""
}
