package stream

import (
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestKindRoundTrip: every kind survives String -> KindByName and the
// JSON codec, so NDJSON consumers and ParseKinds agree on names.
func TestKindRoundTrip(t *testing.T) {
	for k := Kind(0); k < NumKinds; k++ {
		got, err := KindByName(k.String())
		if err != nil || got != k {
			t.Errorf("KindByName(%q) = %v, %v", k.String(), got, err)
		}
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var back Kind
		if err := json.Unmarshal(b, &back); err != nil || back != k {
			t.Errorf("JSON round trip of %v: %v, %v", k, back, err)
		}
	}
	if _, err := KindByName("bogus"); err == nil {
		t.Error("KindByName accepted an unknown name")
	}
	var k Kind
	if err := k.UnmarshalJSON([]byte(`"bogus"`)); err == nil {
		t.Error("UnmarshalJSON accepted an unknown name")
	}
}

func TestParseKinds(t *testing.T) {
	if m, err := ParseKinds(""); err != nil || m != MaskAll {
		t.Errorf("ParseKinds(\"\") = %v, %v, want MaskAll", m, err)
	}
	m, err := ParseKinds("anomaly, swap")
	if err != nil {
		t.Fatal(err)
	}
	if !m.Has(KindAnomaly) || !m.Has(KindSwap) || m.Has(KindAudit) {
		t.Errorf("ParseKinds selected wrong kinds: %b", m)
	}
	if _, err := ParseKinds("anomaly,nope"); err == nil {
		t.Error("ParseKinds accepted an unknown kind")
	}
	if m, err := ParseKinds(",,"); err != nil || m != MaskAll {
		t.Errorf("ParseKinds(\",,\") = %v, %v, want MaskAll", m, err)
	}
}

// TestPublishSubscribe: a keeping-up subscriber sees every event exactly
// once, in publication order, with 1-based contiguous sequence numbers.
func TestPublishSubscribe(t *testing.T) {
	h := NewHub()
	sub := h.Subscribe()
	defer sub.Close()

	const n = 100
	for i := 0; i < n; i++ {
		h.Publish(Event{Kind: KindAudit, Device: "dev", Session: i})
	}
	if got := h.Seq(); got != n {
		t.Fatalf("hub seq = %d, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		ev, ok := sub.TryRecv()
		if !ok {
			t.Fatalf("event %d missing", i)
		}
		if ev.Seq != uint64(i+1) || ev.Session != i {
			t.Fatalf("event %d: seq %d session %d", i, ev.Seq, ev.Session)
		}
		if ev.TimeNs == 0 {
			t.Fatalf("event %d: wall time not stamped", i)
		}
	}
	if _, ok := sub.TryRecv(); ok {
		t.Error("extra event after the published stream")
	}
	if sub.Dropped() != 0 || sub.Enqueued() != n {
		t.Errorf("enqueued %d dropped %d, want %d/0", sub.Enqueued(), sub.Dropped(), n)
	}
}

// TestKindFilter: a masked subscription only receives matching kinds
// and its drop counter only counts matching events.
func TestKindFilter(t *testing.T) {
	h := NewHub()
	sub := h.Subscribe(WithKinds(MaskOf(KindSwap)))
	defer sub.Close()
	h.Publish(Event{Kind: KindAudit})
	h.Publish(Event{Kind: KindSwap, Swap: &SwapInfo{FromGen: 1, ToGen: 2}})
	h.Publish(Event{Kind: KindAttach})
	ev, ok := sub.TryRecv()
	if !ok || ev.Kind != KindSwap {
		t.Fatalf("got %+v, want the swap event", ev)
	}
	if _, ok := sub.TryRecv(); ok {
		t.Error("filtered kinds leaked through")
	}
	if sub.Enqueued() != 1 {
		t.Errorf("enqueued = %d, want 1", sub.Enqueued())
	}
}

// TestDropAccounting: a full ring drops (drop-newest) and counts
// exactly; published == enqueued + dropped for a quiesced hub.
func TestDropAccounting(t *testing.T) {
	h := NewHub()
	sub := h.Subscribe(WithBuffer(4))
	defer sub.Close()
	const n = 10
	for i := 0; i < n; i++ {
		h.Publish(Event{Kind: KindAnomaly, Session: i})
	}
	if sub.Enqueued() != 4 || sub.Dropped() != n-4 {
		t.Fatalf("enqueued %d dropped %d, want 4/%d", sub.Enqueued(), sub.Dropped(), n-4)
	}
	if got := h.Published(KindAnomaly); got != sub.Enqueued()+sub.Dropped() {
		t.Errorf("published %d != enqueued+dropped %d", got, sub.Enqueued()+sub.Dropped())
	}
	// Drop-newest: the survivors are the oldest four.
	for i := 0; i < 4; i++ {
		ev, ok := sub.TryRecv()
		if !ok || ev.Session != i {
			t.Fatalf("survivor %d = %+v", i, ev)
		}
	}
	st := h.Stats()
	if st.TotalPublished != n || st.TotalDropped != n-4 {
		t.Errorf("stats %+v", st)
	}
	if st.Published["anomaly"] != n || st.Dropped["anomaly"] != n-4 {
		t.Errorf("per-kind stats %+v", st)
	}
	// Consuming frees ring space: the next publish is accepted again.
	h.Publish(Event{Kind: KindAnomaly, Session: 99})
	if ev, ok := sub.TryRecv(); !ok || ev.Session != 99 {
		t.Errorf("post-drain publish not delivered: %+v", ev)
	}
}

// TestSubRingGrowsToCapacity: a subscriber ring starts small and grows
// on demand to exactly its capacity. A burst up to the capacity, begun
// with the ring partly consumed so its head is not at slot zero, is
// enqueued with no drop and read back in order; the next event drops
// and is accounted for, and consuming frees a slot again.
func TestSubRingGrowsToCapacity(t *testing.T) {
	const capacity = 100
	h := NewHub()
	sub := h.Subscribe(WithBuffer(capacity))
	defer sub.Close()
	if n := len(sub.buf); n != initialSubBuffer {
		t.Fatalf("a fresh ring holds %d slots, want %d", n, initialSubBuffer)
	}
	for i := 0; i < 5; i++ {
		h.Publish(Event{Kind: KindAttach, Session: -1})
		if _, ok := sub.TryRecv(); !ok {
			t.Fatalf("warm-up event %d not delivered", i)
		}
	}
	for i := 0; i < capacity; i++ {
		h.Publish(Event{Kind: KindAttach, Session: i})
	}
	if n := len(sub.buf); n != capacity {
		t.Errorf("after a full burst the ring holds %d slots, want its capacity %d", n, capacity)
	}
	if sub.Dropped() != 0 || sub.Enqueued() != 5+capacity {
		t.Fatalf("burst to capacity: enqueued %d, dropped %d", sub.Enqueued(), sub.Dropped())
	}
	h.Publish(Event{Kind: KindAnomaly, Session: capacity})
	pub, enq, drop := sub.Accounting()
	if sub.Dropped() != 1 || drop[KindAnomaly] != 1 || pub[KindAnomaly] != enq[KindAnomaly]+drop[KindAnomaly] ||
		pub[KindAttach] != enq[KindAttach] {
		t.Fatalf("one past capacity: published %v, enqueued %v, dropped %v", pub, enq, drop)
	}
	for i := 0; i < capacity; i++ {
		ev, ok := sub.TryRecv()
		if !ok || ev.Session != i {
			t.Fatalf("slot %d: got %+v (ok %t), want session %d", i, ev, ok, i)
		}
	}
	h.Publish(Event{Kind: KindAnomaly, Session: -2})
	if ev, ok := sub.TryRecv(); !ok || ev.Session != -2 || sub.Dropped() != 1 {
		t.Errorf("after draining: got %+v (ok %t), dropped %d", ev, ok, sub.Dropped())
	}
}

// TestConsumedEventReleased: a subscriber ring frees an event's payload
// once the event is consumed. After an anomaly is received and RecentCap
// further events push it out of the hub's recent ring, nothing the hub
// or the subscriber holds may keep its AnomalyInfo alive, although the
// subscriber's 1024 slots are far from wrapping onto it.
func TestConsumedEventReleased(t *testing.T) {
	h := NewHub()
	sub := h.Subscribe(WithBuffer(DefaultSubBuffer))
	defer sub.Close()
	freed := publishAnomaly(h)
	if _, ok := sub.TryRecv(); !ok {
		t.Fatal("anomaly not delivered")
	}
	for i := 0; i < RecentCap; i++ {
		h.Publish(Event{Kind: KindAttach, Session: i})
		if _, ok := sub.TryRecv(); !ok {
			t.Fatalf("event %d not delivered", i)
		}
	}
	if !collected(freed) {
		t.Error("a consumed anomaly's payload is still reachable from the hub or its subscriber")
	}
	runtime.KeepAlive(h)
	runtime.KeepAlive(sub)
}

// publishAnomaly publishes one anomaly event and returns a channel that
// is closed once its payload is collected; no strong reference to the
// payload outlives the call.
func publishAnomaly(h *Hub) <-chan struct{} {
	info := &AnomalyInfo{Strategy: "parameter-check", Detail: "released"}
	freed := make(chan struct{})
	runtime.SetFinalizer(info, func(*AnomalyInfo) { close(freed) })
	h.Publish(Event{Kind: KindAnomaly, Anomaly: info})
	return freed
}

// collected runs the collector until freed is closed, for up to a
// second; it reports whether the object was collected.
func collected(freed <-chan struct{}) bool {
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-freed:
			return true
		case <-time.After(10 * time.Millisecond):
		}
	}
	return false
}

// TestRecent: the hub retains the last RecentCap events for bounded
// reads, oldest first, honoring mask and limit.
func TestRecent(t *testing.T) {
	h := NewHub()
	const n = RecentCap + 50
	for i := 0; i < n; i++ {
		k := KindAudit
		if i%2 == 0 {
			k = KindAnomaly
		}
		h.Publish(Event{Kind: k, Session: i})
	}
	all := h.Recent(MaskAll, 0)
	if len(all) != RecentCap {
		t.Fatalf("retained %d, want %d", len(all), RecentCap)
	}
	if all[0].Session != n-RecentCap || all[len(all)-1].Session != n-1 {
		t.Errorf("retained window [%d, %d], want [%d, %d]",
			all[0].Session, all[len(all)-1].Session, n-RecentCap, n-1)
	}
	for i := 1; i < len(all); i++ {
		if all[i].Seq != all[i-1].Seq+1 {
			t.Fatalf("recent events not contiguous at %d", i)
		}
	}
	limited := h.Recent(MaskOf(KindAnomaly), 5)
	if len(limited) != 5 {
		t.Fatalf("limited read returned %d", len(limited))
	}
	for _, ev := range limited {
		if ev.Kind != KindAnomaly {
			t.Errorf("mask leaked kind %v", ev.Kind)
		}
	}
	if limited[4].Session != n-2 { // last even index
		t.Errorf("limit did not keep the newest matches: %+v", limited[4])
	}
}

// TestNilHub: a nil hub is a valid sink, so publish sites need no
// guards.
func TestNilHub(t *testing.T) {
	var h *Hub
	if got := h.Publish(Event{Kind: KindAnomaly}); got != 0 {
		t.Errorf("nil publish returned seq %d", got)
	}
	if st := h.Stats(); st.TotalPublished != 0 || st.Subscribers != 0 {
		t.Errorf("nil stats %+v", st)
	}
}

// TestCloseDrains: Close detaches from the hub but buffered events stay
// readable; Recv reports ok=false only once drained. Close is
// idempotent.
func TestCloseDrains(t *testing.T) {
	h := NewHub()
	sub := h.Subscribe()
	h.Publish(Event{Kind: KindAudit, Session: 1})
	h.Publish(Event{Kind: KindAudit, Session: 2})
	sub.Close()
	sub.Close()
	if st := h.Stats(); st.Subscribers != 0 {
		t.Fatalf("subscriber still attached after Close: %+v", st)
	}
	// Publishes after Close neither deliver nor count drops.
	h.Publish(Event{Kind: KindAudit, Session: 3})
	for want := 1; want <= 2; want++ {
		ev, ok := sub.Recv(nil)
		if !ok || ev.Session != want {
			t.Fatalf("drain %d = %+v, %v", want, ev, ok)
		}
	}
	if _, ok := sub.Recv(nil); ok {
		t.Error("Recv delivered past the drained buffer")
	}
	if sub.Dropped() != 0 {
		t.Errorf("closed sub counted %d drops", sub.Dropped())
	}
}

// TestRecvDone: a done channel unblocks a waiting Recv.
func TestRecvDone(t *testing.T) {
	h := NewHub()
	sub := h.Subscribe()
	defer sub.Close()
	done := make(chan struct{})
	got := make(chan bool, 1)
	go func() {
		_, ok := sub.Recv(done)
		got <- ok
	}()
	close(done)
	if ok := <-got; ok {
		t.Error("Recv returned an event after done closed")
	}
}

// TestConcurrentExactlyOnce is the hub's core delivery property under
// contention: with P concurrent publishers, a keeping-up subscriber
// sees every event exactly once with strictly increasing sequence
// numbers, and the final sequence equals the total published.
func TestConcurrentExactlyOnce(t *testing.T) {
	h := NewHub()
	const pubs, each = 8, 500
	sub := h.Subscribe(WithBuffer(pubs * each))
	var wg sync.WaitGroup
	for p := 0; p < pubs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Publish(Event{Kind: Kind(i % int(NumKinds-1)), Session: p})
			}
		}(p)
	}

	seen := 0
	lastSeq := uint64(0)
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		for {
			ev, ok := sub.Recv(nil)
			if !ok {
				return
			}
			if ev.Seq <= lastSeq {
				t.Errorf("seq went backwards: %d after %d", ev.Seq, lastSeq)
				return
			}
			lastSeq = ev.Seq
			seen++
		}
	}()
	wg.Wait()
	sub.Close()
	<-recvDone

	if sub.Dropped() != 0 {
		t.Fatalf("keeping-up subscriber dropped %d", sub.Dropped())
	}
	if seen != pubs*each {
		t.Errorf("delivered %d events, want %d", seen, pubs*each)
	}
	if h.Seq() != pubs*each {
		t.Errorf("final seq %d, want %d", h.Seq(), pubs*each)
	}
}

// TestEventString spot-checks the pretty-printer `sedspec watch` uses.
func TestEventString(t *testing.T) {
	ev := Event{
		Seq: 7, Kind: KindAnomaly, Device: "fdc", Session: 2, SpecGen: 3,
		Anomaly: &AnomalyInfo{
			Strategy: "parameter-check", Severity: "critical",
			Detail: "bad write", Round: 41, Addr: 0x3f5, Write: true, Len: 1,
		},
	}
	s := ev.String()
	for _, want := range []string{"anomaly", "fdc", "s2", "gen3", "round 41", "wr", "0x3f5", "parameter-check", "bad write"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
	drop := Event{Seq: 9, Kind: KindDrop, Session: -1, Dropped: 12}
	if s := drop.String(); !strings.Contains(s, "12 events dropped") {
		t.Errorf("drop notice rendering: %s", s)
	}
	sw := Event{Seq: 3, Kind: KindSwap, Device: "fdc", Session: -1, Swap: &SwapInfo{FromGen: 1, ToGen: 2}}
	if s := sw.String(); !strings.Contains(s, "gen 1 -> 2") {
		t.Errorf("swap rendering: %s", s)
	}
}
