package journal

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sedspec/internal/obs"
	"sedspec/internal/obs/stream"
)

// testEvent builds an appendable event with a hub seq and timestamp.
func testEvent(seq uint64, kind stream.Kind, tenant, device string) stream.Event {
	ev := stream.Event{
		Seq:     seq,
		TimeNs:  int64(1000 * seq),
		Kind:    kind,
		Tenant:  tenant,
		Device:  device,
		Session: 1,
		SpecGen: seq % 5,
	}
	switch kind {
	case stream.KindAnomaly:
		ev.Anomaly = &stream.AnomalyInfo{Strategy: "parameter-check", Severity: "critical", Detail: "track out of range", Round: seq}
	case stream.KindAudit:
		ev.Audit = &stream.AuditInfo{Strategy: "indirect-jump-check", Detail: "untrained command", Round: seq}
	case stream.KindSwap:
		ev.Swap = &stream.SwapInfo{FromGen: 1, ToGen: 2}
	case stream.KindDetach:
		ev.Detach = &stream.SessionInfo{Rounds: 100, Blocked: 2, Warnings: 3}
	case stream.KindSpec:
		ev.Spec = &stream.SpecInfo{Generation: 2, CreatedBy: "enhance"}
	case stream.KindHealth:
		ev.Session = -1
		ev.Health = &stream.FleetSnapshot{
			TimeUnixNs: ev.TimeNs,
			Devices:    []stream.DeviceHealth{{Device: device, Tenant: tenant, Rounds: 100 * seq, Sessions: 1}},
			Sessions:   1,
		}
	}
	return ev
}

func mustOpen(t *testing.T, opts Options) *Journal {
	t.Helper()
	j, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return j
}

// TestJournalPersistAndReload is the basic durability contract: append,
// close, reopen, and every record comes back in order with every stamp
// intact. Health records, which older builds journaled, must reopen
// without a truncation: the scan reads an undecodable frame as a torn
// tail and would cut the journal there.
func TestJournalPersistAndReload(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, Options{Dir: dir, Fsync: PolicyNone})
	kinds := []stream.Kind{stream.KindAnomaly, stream.KindAudit, stream.KindSwap, stream.KindDetach, stream.KindSpec}
	for i := uint64(1); i <= 20; i++ {
		ev := testEvent(i, kinds[i%uint64(len(kinds))], "prod", "fdc")
		if err := j.Append(&ev); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	st := j.Stats()
	if st.Appended != 20 || st.Records != 20 || st.FirstSeq != 1 || st.LastSeq != 20 {
		t.Fatalf("stats before close: %+v", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2 := mustOpen(t, Options{Dir: dir, Fsync: PolicyNone})
	defer j2.Close()
	st = j2.Stats()
	if st.Records != 20 || st.Truncations != 0 {
		t.Fatalf("stats after reload: %+v", st)
	}
	tail, err := readAll(j2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 20 {
		t.Fatalf("tail length %d, want 20", len(tail))
	}
	for i, ev := range tail {
		want := testEvent(uint64(i+1), kinds[uint64(i+1)%uint64(len(kinds))], "prod", "fdc")
		if ev.Seq != want.Seq || ev.Kind != want.Kind || ev.Tenant != "prod" || ev.SpecGen != want.SpecGen {
			t.Fatalf("tail[%d] = %+v, want seq %d kind %s", i, ev, want.Seq, want.Kind)
		}
	}

	dir = t.TempDir()
	j = mustOpen(t, Options{Dir: dir, Fsync: PolicyNone})
	for i, k := range []stream.Kind{stream.KindAnomaly, stream.KindHealth, stream.KindAnomaly} {
		ev := testEvent(uint64(i+1), k, "prod", "fdc")
		if err := j.Append(&ev); err != nil {
			t.Fatalf("append %s: %v", k, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j3 := mustOpen(t, Options{Dir: dir, Fsync: PolicyNone})
	defer j3.Close()
	if st := j3.Stats(); st.Records != 3 || st.Truncations != 0 {
		t.Fatalf("health record between anomalies: stats after reload %+v", st)
	}
	var got []stream.Event
	if err := j3.Query(stream.Query{}, func(ev *stream.Event) bool { got = append(got, *ev); return true }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[1].Kind != stream.KindHealth || got[1].Health == nil || got[1].Health.Device("fdc").Rounds != 200 {
		t.Fatalf("query after reload = %+v", got)
	}
}

// TestJournalTornWriteRecovery is the acceptance-critical recovery
// property: truncate the last segment at EVERY byte offset inside the
// final record's frame; every truncated copy must open successfully,
// recover all prior records, and report exactly one truncation.
func TestJournalTornWriteRecovery(t *testing.T) {
	// Build a pristine journal with a known final record.
	master := t.TempDir()
	j := mustOpen(t, Options{Dir: master, Fsync: PolicyNone})
	const n = 5
	for i := uint64(1); i <= n; i++ {
		ev := testEvent(i, stream.KindAnomaly, "prod", "fdc")
		if err := j.Append(&ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(master, "journal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly 1 segment, got %v (%v)", segs, err)
	}
	pristine, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}

	// Find where the final record's frame begins by re-walking the first
	// n-1 frames.
	lastFrameStart := int64(len(segMagic))
	j2 := mustOpen(t, Options{Dir: master, Fsync: PolicyNone})
	count := 0
	err = j2.Query(stream.Query{Limit: n - 1}, func(ev *stream.Event) bool {
		count++
		return true
	})
	if err != nil || count != n-1 {
		t.Fatalf("prewalk: %d events, %v", count, err)
	}
	j2.Close()
	{
		// Recompute the last frame's start from sizes: frames are
		// header + payload; walk lengths directly.
		off := int64(len(segMagic))
		for {
			if off+frameHeader > int64(len(pristine)) {
				t.Fatalf("walk overran file at %d", off)
			}
			plen := int64(uint32(pristine[off]) | uint32(pristine[off+1])<<8 | uint32(pristine[off+2])<<16 | uint32(pristine[off+3])<<24)
			next := off + frameHeader + plen
			if next == int64(len(pristine)) {
				lastFrameStart = off
				break
			}
			off = next
		}
	}

	// Every cut inside the final frame must recover to n-1 records. A
	// cut exactly at the frame boundary leaves a clean file (no torn
	// bytes → no truncation); any cut strictly inside repairs exactly
	// one torn tail.
	for cut := lastFrameStart; cut < int64(len(pristine)); cut++ {
		wantTrunc := uint64(1)
		if cut == lastFrameStart {
			wantTrunc = 0
		}
		dir := t.TempDir()
		path := filepath.Join(dir, filepath.Base(segs[0]))
		if err := os.WriteFile(path, pristine[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		jr, err := Open(Options{Dir: dir, Fsync: PolicyNone})
		if err != nil {
			t.Fatalf("cut %d: open failed: %v", cut, err)
		}
		st := jr.Stats()
		if st.Truncations != wantTrunc {
			t.Fatalf("cut %d: truncations = %d, want %d", cut, st.Truncations, wantTrunc)
		}
		if st.Records != n-1 {
			t.Fatalf("cut %d: records = %d, want %d", cut, st.Records, n-1)
		}
		tail, err := readAll(jr)
		if err != nil || len(tail) != n-1 {
			t.Fatalf("cut %d: tail %d events, %v", cut, len(tail), err)
		}
		for i, ev := range tail {
			if ev.Seq != uint64(i+1) {
				t.Fatalf("cut %d: tail[%d].Seq = %d", cut, i, ev.Seq)
			}
		}
		// The repaired journal must accept appends cleanly.
		ev := testEvent(n, stream.KindAnomaly, "prod", "fdc")
		if err := jr.Append(&ev); err != nil {
			t.Fatalf("cut %d: append after repair: %v", cut, err)
		}
		if err := jr.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
		jr2, err := Open(Options{Dir: dir, Fsync: PolicyNone})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if st := jr2.Stats(); st.Records != n || st.Truncations != 0 {
			t.Fatalf("cut %d: after repair+append: %+v", cut, st)
		}
		jr2.Close()
	}

	// A corrupt byte (CRC failure) in the final record is recovered the
	// same way as a short write.
	dir := t.TempDir()
	path := filepath.Join(dir, filepath.Base(segs[0]))
	flipped := append([]byte(nil), pristine...)
	flipped[len(flipped)-1] ^= 0xff
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	jr := mustOpen(t, Options{Dir: dir, Fsync: PolicyNone})
	if st := jr.Stats(); st.Truncations != 1 || st.Records != n-1 {
		t.Fatalf("bitflip recovery: %+v", st)
	}
	jr.Close()
}

// TestJournalRotationAndRetention drives the segment lifecycle with a
// tiny segment budget: rotation on size, pruning beyond MaxSegments,
// and queries spanning the survivors.
func TestJournalRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, Options{Dir: dir, SegmentBytes: 512, MaxSegments: 3, Fsync: PolicyNone})
	defer j.Close()
	for i := uint64(1); i <= 100; i++ {
		ev := testEvent(i, stream.KindAnomaly, "prod", "fdc")
		if err := j.Append(&ev); err != nil {
			t.Fatal(err)
		}
	}
	st := j.Stats()
	if st.Segments > 3 {
		t.Fatalf("retention leak: %d segments", st.Segments)
	}
	if st.Rotations == 0 || st.Pruned == 0 {
		t.Fatalf("expected rotations and pruning: %+v", st)
	}
	if st.LastSeq != 100 {
		t.Fatalf("last seq %d", st.LastSeq)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "journal-*.seg"))
	if len(files) != st.Segments {
		t.Fatalf("index says %d segments, disk has %d", st.Segments, len(files))
	}
	// The oldest retained record is whatever survived pruning; the tail
	// must still end at 100 and be contiguous.
	tail, err := readAll(j)
	if err != nil || len(tail) == 0 {
		t.Fatalf("tail: %d, %v", len(tail), err)
	}
	for i := 1; i < len(tail); i++ {
		if tail[i].Seq != tail[i-1].Seq+1 {
			t.Fatalf("tail not contiguous at %d: %d -> %d", i, tail[i-1].Seq, tail[i].Seq)
		}
	}
	if tail[len(tail)-1].Seq != 100 {
		t.Fatalf("tail ends at %d", tail[len(tail)-1].Seq)
	}
}

// TestJournalQueryFilters pins every Query dimension.
func TestJournalQueryFilters(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, Options{Dir: dir, Fsync: PolicyNone})
	defer j.Close()
	seq := uint64(0)
	add := func(kind stream.Kind, tenant, device string) {
		seq++
		ev := testEvent(seq, kind, tenant, device)
		if err := j.Append(&ev); err != nil {
			t.Fatal(err)
		}
	}
	add(stream.KindAnomaly, "prod", "fdc")
	add(stream.KindAudit, "prod", "fdc")
	add(stream.KindAnomaly, "edge", "ehci")
	add(stream.KindSwap, "prod", "fdc")
	add(stream.KindAnomaly, "prod", "ehci")

	countQ := func(q stream.Query) int {
		n := 0
		if err := j.Query(q, func(*stream.Event) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := countQ(stream.Query{}); n != 5 {
		t.Errorf("unfiltered: %d", n)
	}
	if n := countQ(stream.Query{Kinds: stream.MaskOf(stream.KindAnomaly)}); n != 3 {
		t.Errorf("kind filter: %d", n)
	}
	if n := countQ(stream.Query{Tenant: "edge"}); n != 1 {
		t.Errorf("tenant filter: %d", n)
	}
	if n := countQ(stream.Query{Device: "ehci"}); n != 2 {
		t.Errorf("device filter: %d", n)
	}
	if n := countQ(stream.Query{MinSeq: 4}); n != 2 {
		t.Errorf("min_seq filter: %d", n)
	}
	if n := countQ(stream.Query{SinceNs: 3000, UntilNs: 4000}); n != 2 {
		t.Errorf("time filter: %d", n)
	}
	if n := countQ(stream.Query{Limit: 2}); n != 2 {
		t.Errorf("limit: %d", n)
	}
}

// TestJournalAttachDrains covers the hub path: events published after
// Attach land on disk; Close drains the backlog before returning.
func TestJournalAttachDrains(t *testing.T) {
	dir := t.TempDir()
	hub := stream.NewHub()
	j := mustOpen(t, Options{Dir: dir, Fsync: PolicyInterval, FsyncInterval: 10 * time.Millisecond})
	j.Attach(hub)
	for i := 0; i < 50; i++ {
		hub.Publish(testEvent(0, stream.KindAnomaly, "prod", "fdc")) // hub assigns seq
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2 := mustOpen(t, Options{Dir: dir, Fsync: PolicyNone})
	defer j2.Close()
	tail, err := readAll(j2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 50 {
		t.Fatalf("persisted %d events, want 50", len(tail))
	}
	for i, ev := range tail {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("tail[%d].Seq = %d (hub seq not preserved)", i, ev.Seq)
		}
	}
	if st := j2.Stats(); st.FirstSeq != 1 || st.LastSeq != 50 {
		t.Fatalf("stats: %+v", st)
	}

	// Drop notices are never persisted.
	if persisted.Has(stream.KindDrop) || persisted|stream.MaskOf(stream.KindDrop) != stream.MaskAll {
		t.Errorf("persisted kinds %b, want every kind but drop notices", persisted)
	}
}

// TestJournalHubRestore closes the loop the daemon relies on: reopen,
// fold the journal, and the restarted hub's seq counter resumes past the
// pre-restart history, which /journal reads back from disk.
func TestJournalHubRestore(t *testing.T) {
	dir := t.TempDir()
	hub := stream.NewHub()
	j := mustOpen(t, Options{Dir: dir, Fsync: PolicyNone})
	j.Attach(hub)
	for i := 0; i < 7; i++ {
		hub.Publish(testEvent(0, stream.KindAnomaly, "prod", "fdc"))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": fresh hub, resumed from the journal's newest seq.
	hub2 := stream.NewHub()
	j2 := mustOpen(t, Options{Dir: dir, Fsync: PolicyNone})
	defer j2.Close()
	_, last, err := j2.FoldBaselines()
	if err != nil {
		t.Fatal(err)
	}
	if last != 7 {
		t.Fatalf("folded last seq %d, want 7", last)
	}
	hub2.ResumeAt(last)
	hub2.ResumeAt(3) // never moves back
	j2.Attach(hub2)
	if seq := hub2.Publish(testEvent(0, stream.KindAudit, "prod", "fdc")); seq != 8 {
		t.Fatalf("post-restart publish seq %d, want 8", seq)
	}
	history, err := readAll(j2)
	if err != nil {
		t.Fatal(err)
	}
	if len(history) != 8 || history[6].Seq != 7 || history[7].Seq != 8 {
		t.Fatalf("history after restart: %d events", len(history))
	}
}

// readAll returns every event in the journal, oldest first.
func readAll(j *Journal) ([]stream.Event, error) {
	var out []stream.Event
	err := j.Query(stream.Query{}, func(ev *stream.Event) bool {
		out = append(out, *ev)
		return true
	})
	return out, err
}

// TestJournalFoldBaselines pins the one-authoritative-source-per-count
// rule: blocked from anomalies, warned from audits, rounds from detach
// finals, swaps from swap events, generation from the max stamp.
func TestJournalFoldBaselines(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, Options{Dir: dir, Fsync: PolicyNone})
	defer j.Close()
	seq := uint64(0)
	add := func(ev stream.Event) {
		seq++
		ev.Seq = seq
		ev.TimeNs = int64(seq)
		if err := j.Append(&ev); err != nil {
			t.Fatal(err)
		}
	}
	add(stream.Event{Kind: stream.KindAnomaly, Tenant: "prod", Device: "fdc", SpecGen: 2,
		Anomaly: &stream.AnomalyInfo{Severity: "critical"}})
	add(stream.Event{Kind: stream.KindAnomaly, Tenant: "prod", Device: "fdc", SpecGen: 3,
		Anomaly: &stream.AnomalyInfo{Severity: "critical"}})
	add(stream.Event{Kind: stream.KindAudit, Tenant: "prod", Device: "fdc", SpecGen: 3,
		Audit: &stream.AuditInfo{}})
	add(stream.Event{Kind: stream.KindSwap, Tenant: "prod", Device: "fdc", SpecGen: 4,
		Swap: &stream.SwapInfo{FromGen: 3, ToGen: 4}})
	add(stream.Event{Kind: stream.KindDetach, Tenant: "prod", Device: "fdc", SpecGen: 4,
		Detach: &stream.SessionInfo{Rounds: 500, Blocked: 2, Warnings: 1}})
	add(stream.Event{Kind: stream.KindDetach, Tenant: "prod", Device: "fdc", SpecGen: 4,
		Detach: &stream.SessionInfo{Rounds: 250}})
	add(stream.Event{Kind: stream.KindAnomaly, Tenant: "edge", Device: "ehci", SpecGen: 1,
		Anomaly: &stream.AnomalyInfo{Severity: "critical"}})
	// Engine-level event with no device: folded into no row.
	add(stream.Event{Kind: stream.KindSpec, Tenant: "prod", SpecGen: 5, Spec: &stream.SpecInfo{Generation: 5}})

	rows, last, err := j.FoldBaselines()
	if err != nil {
		t.Fatal(err)
	}
	if last != seq {
		t.Errorf("folded last seq %d, want %d", last, seq)
	}
	if len(rows) != 2 {
		t.Fatalf("rows: %+v", rows)
	}
	if r := rows[0]; r.Tenant != "edge" || r.Device != "ehci" || r.Blocked != 1 || r.Rounds != 0 {
		t.Fatalf("edge row: %+v", r)
	}
	if r := rows[1]; r.Tenant != "prod" || r.Device != "fdc" ||
		r.Blocked != 2 || r.Warned != 1 || r.Swaps != 1 || r.Rounds != 750 || r.Generation != 4 {
		t.Fatalf("prod row: %+v", r)
	}
}

// TestJournalHandler exercises /journal on a server whose history
// source is the journal: NDJSON output, filters, limit, and the stats
// view.
func TestJournalHandler(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, Options{Dir: dir, Fsync: PolicyNone})
	defer j.Close()
	for i := uint64(1); i <= 6; i++ {
		kind := stream.KindAnomaly
		if i%2 == 0 {
			kind = stream.KindAudit
		}
		ev := testEvent(i, kind, "prod", "fdc")
		if err := j.Append(&ev); err != nil {
			t.Fatal(err)
		}
	}
	h := stream.NewServer(stream.ServerOptions{Registry: obs.NewRegistry(), Hub: stream.NewHub(), History: j})

	get := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		return rec
	}
	lines := func(rec *httptest.ResponseRecorder) []string {
		body := strings.TrimSpace(rec.Body.String())
		if body == "" {
			return nil
		}
		return strings.Split(body, "\n")
	}

	rec := get("/journal")
	if rec.Code != 200 || rec.Header().Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("GET /journal: %d %s", rec.Code, rec.Header().Get("Content-Type"))
	}
	if got := lines(rec); len(got) != 6 {
		t.Fatalf("unfiltered lines: %d", len(got))
	} else {
		var ev stream.Event
		if err := json.Unmarshal([]byte(got[0]), &ev); err != nil || ev.Seq != 1 {
			t.Fatalf("first line decode: %+v, %v", ev, err)
		}
	}
	if got := lines(get("/journal?kinds=anomaly")); len(got) != 3 {
		t.Errorf("kinds filter: %d lines", len(got))
	}
	if got := lines(get("/journal?min_seq=5")); len(got) != 2 {
		t.Errorf("min_seq filter: %d lines", len(got))
	}
	if got := lines(get("/journal?limit=2")); len(got) != 2 {
		t.Errorf("limit: %d lines", len(got))
	}
	if got := lines(get("/journal?since=3000&until=4000")); len(got) != 2 {
		t.Errorf("time filter: %d lines", len(got))
	}
	if rec := get("/journal?tenant=absent"); len(lines(rec)) != 0 {
		t.Errorf("tenant filter returned events")
	}
	if rec := get("/journal?since=bogus"); rec.Code != 400 {
		t.Errorf("bad since: %d", rec.Code)
	}
	if rec := get("/journal?kinds=nope"); rec.Code != 400 {
		t.Errorf("bad kinds: %d", rec.Code)
	}

	rec = get("/journal?stats=1")
	var st Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.Records != 6 || st.Segments != 1 {
		t.Fatalf("stats view: %+v, %v", st, err)
	}
}

// TestParsePolicy pins the flag surface.
func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncPolicy
	}{{"", PolicyInterval}, {"interval", PolicyInterval}, {"always", PolicyAlways}, {"none", PolicyNone}} {
		got, err := ParsePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParsePolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParsePolicy("everysooften"); err == nil {
		t.Error("bad policy accepted")
	}
}
