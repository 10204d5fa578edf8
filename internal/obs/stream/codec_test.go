package stream

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"sedspec/internal/obs"
)

// fixtureEvent builds a randomized but well-formed event of the given
// kind: every envelope field exercised (including negative session and
// empty/non-empty tenants) and the kind's payload populated with
// representative structure.
func fixtureEvent(r *rand.Rand, k Kind) Event {
	tenants := []string{"", "prod", "edge-eu", "t_0.9"}
	devices := []string{"", "fdc", "ehci", "pcnet"}
	ev := Event{
		Seq:     r.Uint64() >> 8,
		TimeNs:  r.Int63(),
		Kind:    k,
		Tenant:  tenants[r.Intn(len(tenants))],
		Device:  devices[r.Intn(len(devices))],
		Session: r.Intn(2000) - 1,
		SpecGen: uint64(r.Intn(64)),
	}
	switch k {
	case KindAnomaly:
		ev.Anomaly = &AnomalyInfo{
			Strategy: "parameter-check",
			Severity: "critical",
			Detail:   "track 0x51 exceeds geometry",
			Round:    r.Uint64() >> 16,
			Addr:     0x3f5,
			Write:    r.Intn(2) == 0,
			Len:      1 + r.Intn(8),
			EdgeKind: "case",
			EdgeSel:  uint64(r.Intn(256)),
		}
		if r.Intn(2) == 0 {
			ev.Anomaly.Ctx = &obs.AnomalyContext{
				Device:  ev.Device,
				Session: ev.Session,
				Dropped: uint64(r.Intn(10)),
				Events: []obs.Event{
					{Seq: 1, Round: 7, Addr: 0x3f4, Steps: 12, Len: 1, Kind: obs.KindPIOWrite, Verdict: obs.VerdictOK},
					{Seq: 2, Round: 8, Addr: 0x3f5, Steps: 40, Len: 1, Kind: obs.KindPIOWrite, Strategy: 1, Verdict: obs.VerdictBlocked},
				},
			}
		}
	case KindAudit:
		ev.Audit = &AuditInfo{
			Strategy: "indirect-jump-check",
			Detail:   "untrained command 0x8e",
			Round:    r.Uint64() >> 16,
			Addr:     uint64(r.Intn(1 << 16)),
			Write:    true,
			Len:      2,
		}
	case KindSwap:
		ev.Swap = &SwapInfo{FromGen: 1 + uint64(r.Intn(8)), ToGen: 2 + uint64(r.Intn(8))}
	case KindAttach:
		// Attach carries no payload: the envelope is the whole event.
	case KindDetach:
		ev.Detach = &SessionInfo{Rounds: r.Uint64() >> 16, Blocked: uint64(r.Intn(4)), Warnings: uint64(r.Intn(9))}
	case KindSpec:
		ev.Spec = &SpecInfo{Generation: 1 + uint64(r.Intn(9)), Parent: uint64(r.Intn(4)), CreatedBy: "enhance", Blob: "sha256-deadbeef"}
	case KindHealth:
		ev.Health = &FleetSnapshot{
			TimeUnixNs: r.Int63(),
			UptimeSec:  12.5,
			Build:      BuildInfo{GoVersion: "go1.22", Path: "sedspec"},
			Stream:     HubStats{Subscribers: 2, TotalPublished: 9, Published: map[string]uint64{"anomaly": 9}},
			Devices: []DeviceHealth{{
				Device: "fdc", Tenant: ev.Tenant, Rounds: 100, Blocked: 1, StepsP99: 80,
				Coverage: &GenCoverage{Generation: 2, BlocksCovered: 10, TotalBlocks: 12, EdgesCovered: 20, TotalEdges: 30},
			}},
			Sessions: 3,
		}
	case KindDrop:
		ev.Dropped = 1 + uint64(r.Intn(1000))
	}
	return ev
}

// TestEventCodecRoundTrip is the codec property test the journal
// depends on: for every kind, across randomized fixtures,
// MarshalBinary -> UnmarshalBinary reproduces the event exactly, and
// re-encoding the decoded event reproduces the bytes (determinism).
func TestEventCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for k := Kind(0); k < NumKinds; k++ {
		for trial := 0; trial < 50; trial++ {
			ev := fixtureEvent(r, k)
			enc, err := ev.MarshalBinary()
			if err != nil {
				t.Fatalf("%s: marshal: %v", k, err)
			}
			var got Event
			if err := got.UnmarshalBinary(enc); err != nil {
				t.Fatalf("%s: unmarshal: %v", k, err)
			}
			if !reflect.DeepEqual(ev, got) {
				t.Fatalf("%s: round trip mismatch:\n want %+v\n  got %+v", k, ev, got)
			}
			re, err := got.MarshalBinary()
			if err != nil {
				t.Fatalf("%s: re-marshal: %v", k, err)
			}
			if !bytes.Equal(enc, re) {
				t.Fatalf("%s: non-deterministic encoding: %x vs %x", k, enc, re)
			}
		}
	}
}

// TestEventCodecRejects pins the decoder's failure modes: version and
// kind validation, truncation at any prefix, and trailing garbage.
func TestEventCodecRejects(t *testing.T) {
	ev := fixtureEvent(rand.New(rand.NewSource(7)), KindAnomaly)
	enc, err := ev.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	bad := append([]byte(nil), enc...)
	bad[0] = 99
	var out Event
	if err := out.UnmarshalBinary(bad); err == nil {
		t.Error("unknown version accepted")
	}
	bad = append([]byte(nil), enc...)
	bad[1] = NumKinds + 3
	if err := out.UnmarshalBinary(bad); err == nil {
		t.Error("unknown kind accepted")
	}
	for cut := 0; cut < len(enc); cut++ {
		if err := out.UnmarshalBinary(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if err := out.UnmarshalBinary(append(append([]byte(nil), enc...), 0xff)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

// TestHealthPayloadFromOlderBuild: journals written before the health
// fold became pull-only hold health records whose payload carries the
// watchdog fields (rounds_per_sec, observed_ns_per_op, over_budget,
// budget_ns_per_op, degraded). They must still decode: the journal
// reads an undecodable frame as a torn tail and truncates there.
func TestHealthPayloadFromOlderBuild(t *testing.T) {
	legacy := []byte(`{"time_unix_ns":7,"uptime_sec":1.5,"budget_ns_per_op":1000,` +
		`"build":{"go_version":"go1.22"},"stream":{"subscribers":0,"total_published":0,"total_dropped":0},` +
		`"devices":[{"device":"fdc","rounds":9,"anomalies":0,"blocked":0,"warned":0,"sessions":1,` +
		`"rounds_per_sec":12.5,"latency_ticks_p50":0,"latency_ticks_p90":0,"latency_ticks_p99":0,` +
		`"steps_p50":0,"steps_p90":0,"steps_p99":0,"observed_ns_per_op":800,"over_budget":false}],` +
		`"sessions":1,"degraded":false}`)
	got := decodeStored(t, Event{Seq: 3, Kind: KindHealth, Session: -1}, legacy)
	if got.Health == nil || got.Health.Sessions != 1 || got.Health.Device("fdc") == nil || got.Health.Device("fdc").Rounds != 9 {
		t.Errorf("older health record decoded as %+v", got.Health)
	}
}

// decodeStored frames payload as ev's JSON body, the way the journal
// stores it, and decodes the frame.
func decodeStored(t *testing.T, ev Event, payload []byte) Event {
	t.Helper()
	enc, err := ev.MarshalBinary() // no payload: ends in a zero length
	if err != nil {
		t.Fatal(err)
	}
	enc = binary.AppendUvarint(enc[:len(enc)-1], uint64(len(payload)))
	enc = append(enc, payload...)
	var got Event
	if err := got.UnmarshalBinary(enc); err != nil {
		t.Fatalf("stored %s record rejected: %v", ev.Kind, err)
	}
	return got
}

// TestPayloadsWithTickGap: builds that derived a simclock gap per round
// stored it in two places — a gap field on each frozen flight recorder
// event and gap quantiles on each health row. Their journal records
// must still decode, keeping every other field.
func TestPayloadsWithTickGap(t *testing.T) {
	anomaly := []byte(`{"strategy":"parameter-check","severity":"critical","detail":"track 0x51 exceeds geometry",` +
		`"round":8,"addr":1013,"write":true,"len":1,"ctx":{"Device":"fdc","Session":2,"Dropped":0,"Events":[` +
		`{"Seq":1,"Tick":40,"Round":7,"Addr":1012,"Steps":12,"Latency":40,"Session":0,"Handler":0,"Block":0,"Len":1,"SpecGen":1,"Kind":3,"Strategy":0,"Verdict":0},` +
		`{"Seq":2,"Tick":70,"Round":8,"Addr":1013,"Steps":40,"Latency":30,"Session":0,"Handler":0,"Block":0,"Len":1,"SpecGen":1,"Kind":3,"Strategy":1,"Verdict":2}]}}`)
	got := decodeStored(t, Event{Seq: 4, Kind: KindAnomaly, Device: "fdc", Session: 2}, anomaly)
	if got.Anomaly == nil || got.Anomaly.Ctx == nil || len(got.Anomaly.Ctx.Events) != 2 {
		t.Fatalf("stored anomaly decoded as %+v", got.Anomaly)
	}
	want := obs.Event{Seq: 2, Tick: 70, Round: 8, Addr: 0x3f5, Steps: 40, Len: 1, SpecGen: 1,
		Kind: obs.KindPIOWrite, Strategy: 1, Verdict: obs.VerdictBlocked}
	if ev := got.Anomaly.Ctx.Events[1]; ev != want {
		t.Errorf("frozen event decoded as %+v, want %+v", ev, want)
	}

	health := []byte(`{"time_unix_ns":7,"uptime_sec":1.5,"build":{"go_version":"go1.24.0"},` +
		`"stream":{"subscribers":0,"total_published":0,"total_dropped":0,"published":null,"dropped":null},` +
		`"devices":[{"device":"fdc","rounds":9,"anomalies":0,"blocked":0,"warned":0,"sessions":1,` +
		`"latency_ticks_p50":24,"latency_ticks_p90":31,"latency_ticks_p99":40,"steps_p50":12,"steps_p90":15,"steps_p99":16}],"sessions":1}`)
	got = decodeStored(t, Event{Seq: 5, Kind: KindHealth, Session: -1}, health)
	d := got.Health.Device("fdc")
	if d == nil || d.Rounds != 9 || d.StepsP50 != 12 || d.StepsP99 != 16 {
		t.Errorf("stored health row decoded as %+v", d)
	}
}
