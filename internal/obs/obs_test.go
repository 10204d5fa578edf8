package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"unsafe"
)

// record appends ev to r's ring under r's sequencing fields and counts
// and publishes it: the checker's Append, field stores and Count, with
// the round visible to Snapshot at once.
func record(r *Recorder, ev Event) {
	slot := r.Append(ev.Tick)
	ev.Seq, ev.Session = slot.Seq, slot.Session
	*slot = ev
	r.Count(ev.Steps, ev.Strategy, ev.Verdict)
	r.Publish()
}

func TestKindOf(t *testing.T) {
	cases := []struct {
		space uint8
		write bool
		want  ExitKind
	}{
		{1, false, KindPIORead},
		{1, true, KindPIOWrite},
		{2, false, KindMMIORead},
		{2, true, KindMMIOWrite},
		{0, false, KindUnknown},
		{7, true, KindUnknown},
	}
	for _, c := range cases {
		if got := KindOf(c.space, c.write); got != c.want {
			t.Errorf("KindOf(%d, %v) = %v, want %v", c.space, c.write, got, c.want)
		}
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 29, 30}, {1 << 30, NumBuckets - 1}, {1 << 62, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := BucketOf(c.v); got != c.want {
			t.Errorf("BucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	for i := 0; i < NumBuckets; i++ {
		if BucketLabel(i) == "" {
			t.Errorf("empty label for bucket %d", i)
		}
	}
}

func TestRingWrapAndOrder(t *testing.T) {
	g := NewRegistry()
	r := g.NewRecorder("", "dev", 3, 8)
	if r.Ring().Cap() != 8 {
		t.Fatalf("Cap = %d, want 8", r.Ring().Cap())
	}
	for i := 1; i <= 20; i++ {
		record(r, Event{Round: uint64(i), Tick: int64(i)})
	}
	if r.Ring().Len() != 8 {
		t.Fatalf("Len = %d, want 8", r.Ring().Len())
	}
	if r.Ring().Total() != 20 {
		t.Fatalf("Total = %d, want 20", r.Ring().Total())
	}
	snap := r.Ring().Snapshot()
	for i, ev := range snap {
		wantRound := uint64(13 + i)
		if ev.Round != wantRound || ev.Seq != wantRound || ev.Session != 3 {
			t.Errorf("slot %d = round %d seq %d sess %d, want round/seq %d sess 3",
				i, ev.Round, ev.Seq, ev.Session, wantRound)
		}
	}
	last := r.Ring().Last(3)
	if len(last) != 3 || last[2].Round != 20 || last[0].Round != 18 {
		t.Errorf("Last(3) = %+v", last)
	}
	if got := r.Ring().Last(100); len(got) != 8 {
		t.Errorf("Last(100) returned %d events, want 8", len(got))
	}
}

// TestAppendStampsTick: Append stamps each event's sequence number,
// session and tick exactly as given. A tick that runs backwards is kept
// as is; the recorder derives nothing from the gap.
func TestAppendStampsTick(t *testing.T) {
	g := NewRegistry()
	r := g.NewRecorder("", "dev", 4, 8)
	ticks := []int64{100, 130, 120}
	for _, tick := range ticks {
		record(r, Event{Tick: tick})
	}
	for i, ev := range r.Ring().Snapshot() {
		if ev.Tick != ticks[i] || ev.Seq != uint64(i+1) || ev.Session != 4 {
			t.Errorf("event %d = tick %d seq %d session %d, want tick %d seq %d session 4",
				i, ev.Tick, ev.Seq, ev.Session, ticks[i], i+1)
		}
	}
}

// TestRecorderSize: a session's recorder is its ring header plus one
// steps histogram, its pending image and the outcome matrix — under
// 1 KiB, the ring's slots aside.
func TestRecorderSize(t *testing.T) {
	n := unsafe.Sizeof(Recorder{})
	t.Logf("Recorder is %d bytes", n)
	if n > 1024 {
		t.Errorf("Recorder is %d bytes, want <= 1024", n)
	}
}

func TestSnapshotCountsAndMerge(t *testing.T) {
	g := NewRegistry()
	a := g.NewRecorder("", "fdc", 0, 16)
	b := g.NewRecorder("", "fdc", 1, 16)
	c := g.NewRecorder("", "scsi", 0, 16)
	for i := 0; i < 10; i++ {
		record(a, Event{Steps: 5, Verdict: VerdictOK})
	}
	record(a, Event{Steps: 7, Strategy: 1, Verdict: VerdictBlocked})
	record(b, Event{Steps: 5, Strategy: 3, Verdict: VerdictWarned})
	record(c, Event{Steps: 9, Verdict: VerdictOK})

	snap := g.Snapshot()
	if len(snap.Devices) != 2 || snap.Devices[0].Device != "fdc" || snap.Devices[1].Device != "scsi" {
		t.Fatalf("devices = %+v", snap.Devices)
	}
	fdc := snap.Row("", "fdc")
	if fdc.Rounds != 12 {
		t.Errorf("fdc rounds = %d, want 12", fdc.Rounds)
	}
	if fdc.Outcomes[1][VerdictBlocked] != 1 || fdc.Outcomes[3][VerdictWarned] != 1 {
		t.Errorf("fdc outcomes = %+v", fdc.Outcomes)
	}
	if fdc.Outcomes[StrategyNone][VerdictOK] != 10 {
		t.Errorf("fdc ok rounds = %d, want 10", fdc.Outcomes[StrategyNone][VerdictOK])
	}
	if fdc.Anomalies() != 2 {
		t.Errorf("fdc anomalies = %d, want 2", fdc.Anomalies())
	}

	// The registry view must equal the sum of per-recorder snapshots.
	manual := a.Snapshot().Merge(b.Snapshot())
	if manual != fdc {
		t.Errorf("merged recorder snapshots diverge from registry:\n  got:  %+v\n  want: %+v", manual, fdc)
	}

	// Close folds into the retired bank: aggregate stable across churn.
	a.Close()
	a.Close() // idempotent
	b.Close()
	if g.Recorders() != 1 {
		t.Fatalf("Recorders = %d, want 1", g.Recorders())
	}
	if got := g.Snapshot().Row("", "fdc"); got != fdc {
		t.Errorf("post-churn snapshot diverges:\n  got:  %+v\n  want: %+v", got, fdc)
	}
}

// TestRowsKeyedByTenant: recorders for one device under two tenants and
// none fill three separate rows, sorted by tenant then device, both
// while open and after Close.
func TestRowsKeyedByTenant(t *testing.T) {
	g := NewRegistry()
	cli := g.NewRecorder("", "fdc", 0, 8)
	a := g.NewRecorder("a", "fdc", 1, 8)
	b := g.NewRecorder("b", "fdc", 2, 8)
	record(cli, Event{Steps: 3, Verdict: VerdictOK})
	for i := 0; i < 2; i++ {
		record(a, Event{Steps: 3, Verdict: VerdictOK})
	}
	for i := 0; i < 3; i++ {
		record(b, Event{Steps: 3, Verdict: VerdictOK})
	}
	check := func(when string) {
		t.Helper()
		snap := g.Snapshot()
		if len(snap.Devices) != 3 {
			t.Fatalf("%s: rows = %+v, want 3", when, snap.Devices)
		}
		for i, want := range []struct {
			tenant string
			rounds uint64
		}{{"", 1}, {"a", 2}, {"b", 3}} {
			row := snap.Devices[i]
			if row.Tenant != want.tenant || row.Device != "fdc" || row.Rounds != want.rounds {
				t.Errorf("%s: row %d = %s/%s %d rounds, want %s/fdc %d", when, i, row.Tenant, row.Device, row.Rounds, want.tenant, want.rounds)
			}
			if got := snap.Row(want.tenant, "fdc"); got != row {
				t.Errorf("%s: Row(%q, fdc) = %+v, want %+v", when, want.tenant, got, row)
			}
		}
	}
	check("open")
	cli.Close()
	a.Close()
	b.Close()
	check("closed")
}

func TestRegistryJSON(t *testing.T) {
	g := NewRegistry()
	r := g.NewRecorder("", "fdc", 0, 8)
	record(r, Event{Steps: 4, Verdict: VerdictOK, Tick: 3})
	record(r, Event{Steps: 6, Strategy: 1, Verdict: VerdictBlocked, Tick: 9})
	s := registryJSON(t, g)
	var decoded map[string]any
	if err := json.Unmarshal([]byte(s), &decoded); err != nil {
		t.Fatalf("export is not JSON: %v\n%s", err, s)
	}
	for _, want := range []string{`"device":"fdc"`, `"rounds":2`, `"strategy":"parameter-check"`, `"verdict":"blocked"`, `"steps"`} {
		if !strings.Contains(s, want) {
			t.Errorf("JSON missing %s:\n%s", want, s)
		}
	}
	if strings.Contains(s, "latency") {
		t.Errorf("JSON carries a latency histogram:\n%s", s)
	}
}

func TestFreezeAndTimeline(t *testing.T) {
	g := NewRegistry()
	r := g.NewRecorder("", "fdc", 2, 8)
	for i := 1; i <= 12; i++ {
		record(r, Event{Round: uint64(i), Addr: 0x3f5, Kind: KindPIOWrite, Steps: 40, Verdict: VerdictOK})
	}
	record(r, Event{Round: 13, Addr: 0x3f5, Kind: KindPIOWrite, Steps: 17, Strategy: 1, Verdict: VerdictBlocked})
	ctx := r.Freeze(4)
	if len(ctx.Events) != 4 {
		t.Fatalf("frozen %d events, want 4", len(ctx.Events))
	}
	final := ctx.Events[len(ctx.Events)-1]
	if final.Verdict != VerdictBlocked || final.Round != 13 {
		t.Fatalf("final frozen event = %+v, want the blocked round", final)
	}
	if ctx.Dropped != 13-8 {
		t.Errorf("Dropped = %d, want 5", ctx.Dropped)
	}
	out := ctx.String()
	for _, want := range []string{"device fdc session 2", "pio-wr", "blocked parameter-check", "0x3f5", "overwritten"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	var sb strings.Builder
	if err := WriteTimeline(&sb, r.Ring().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "blocked parameter-check") {
		t.Errorf("ring timeline missing verdict:\n%s", sb.String())
	}
}

// The debug HTTP surface moved to the stream package's unified
// introspection server; see internal/obs/stream/http_test.go.

// TestCountPublish pins the recorder's one count path: clean rounds stay
// pending (invisible to Snapshot) until Publish, land in the same
// buckets as rounds published one at a time, and an anomalous round
// publishes everything pending before it commits, so Snapshot never
// shows an anomaly without its round. Close publishes what is left.
func TestCountPublish(t *testing.T) {
	g := NewRegistry()
	counted := g.NewRecorder("", "fdc", 0, 16)
	direct := NewRegistry().NewRecorder("", "fdc", 0, 16)
	for i := uint32(0); i < 40; i++ {
		counted.Count(5+i%70, StrategyNone, VerdictOK)
		record(direct, Event{Steps: 5 + i%70, Verdict: VerdictOK})
	}
	if got := counted.Snapshot().Rounds; got != 0 {
		t.Fatalf("unpublished rounds visible: %d", got)
	}
	counted.Publish()
	snap := counted.Snapshot()
	if snap.Rounds != 40 || snap.Steps != direct.Snapshot().Steps {
		t.Fatalf("published %d rounds, steps %+v; want 40, %+v", snap.Rounds, snap.Steps, direct.Snapshot().Steps)
	}
	if snap.Steps.Buckets[3] != 3 || snap.Steps.Buckets[4] != 8 || snap.Steps.Buckets[5] != 16 || snap.Steps.Buckets[6] != 13 {
		t.Fatalf("steps buckets %v, want 3/8/16/13 over buckets 3-6", snap.Steps.Buckets[3:7])
	}

	for i := 0; i < 5; i++ {
		counted.Count(9, StrategyNone, VerdictOK)
	}
	counted.Count(9, 2, VerdictBlocked)
	snap = counted.Snapshot()
	if snap.Rounds != 46 || snap.Anomalies() != 1 || snap.Outcomes[2][VerdictBlocked] != 1 {
		t.Fatalf("after anomaly: rounds %d anomalies %d, want 46 and 1", snap.Rounds, snap.Anomalies())
	}

	counted.Count(9, StrategyNone, VerdictOK)
	counted.Close()
	if got := g.Snapshot().Row("", "fdc").Rounds; got != 47 {
		t.Fatalf("after close: registry rounds %d, want 47", got)
	}
}
