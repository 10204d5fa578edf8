// Streaming telemetry acceptance tests: the delivery contract of the
// anomaly event hub under a concurrent multi-session hammer, and the
// guard that keeps an attached hub free on the sealed check path.
package sedspec_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sedspec"
	"sedspec/internal/bench"
	"sedspec/internal/checker"
	"sedspec/internal/devices/testdev"
	"sedspec/internal/fuzzer"
	"sedspec/internal/interp"
	"sedspec/internal/machine"
	"sedspec/internal/obs"
	"sedspec/internal/obs/journal"
	"sedspec/internal/obs/stream"
	"sedspec/internal/workload"
)

// TestStreamDeliverySemantics pins the hub's two delivery contracts at
// once, under -race with four concurrent protected sessions:
//
//   - a keeping-up subscriber sees every published event exactly once,
//     in strictly increasing sequence order, with zero drops;
//   - a slow subscriber that never drains loses events instead of
//     blocking publishers, and its accounting balances exactly:
//     enqueued + dropped == published.
func TestStreamDeliverySemantics(t *testing.T) {
	_, latt := setup(t, testdev.Options{})
	spec := learn(t, latt).Spec

	hub := stream.NewHub()
	// Large enough to hold every event even if the consumer stalls: 4
	// sessions x 2000 hammer ops publish at most one event each, plus
	// lifecycle events.
	keeper := hub.Subscribe(stream.WithBuffer(1 << 16))
	slow := hub.Subscribe(stream.WithBuffer(4)) // never drained
	defer slow.Close()

	// Enhancement mode plus a no-op halt keeps sessions publishing
	// audits and blocked anomalies straight through random I/O.
	sh := sedspec.NewSharedChecker(spec,
		checker.WithObs(obs.NewRegistry()),
		checker.WithMode(checker.ModeEnhancement),
		sedspec.WithStream(hub))

	const n = 4
	p := machine.NewPool(n, lifecycleBuild)
	chks := make([]*checker.Checker, n)
	for i, s := range p.Sessions() {
		chks[i] = sedspec.ProtectShared(s.Attached(), sh, checker.WithHalt(func() {}))
	}

	var (
		wg        sync.WaitGroup
		delivered uint64
		lastSeq   uint64
		orderErr  bool
		byKind    [stream.NumKinds]uint64
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			ev, ok := keeper.Recv(nil)
			if !ok {
				return
			}
			if ev.Seq <= lastSeq {
				orderErr = true
			}
			lastSeq = ev.Seq
			delivered++
			byKind[ev.Kind%stream.NumKinds]++
		}
	}()

	if err := p.Run(func(s *machine.Session) error {
		fuzzer.Hammer(s.Attached(), interp.SpacePIO, testdev.PortCmd, testdev.PortCount,
			uint64(1+s.ID()), 2000)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, c := range chks {
		c.Close()
	}
	// Close detaches the keeper from the hub but leaves its buffered
	// backlog readable; the consumer drains it and Recv reports done.
	keeper.Close()
	wg.Wait()

	if orderErr {
		t.Error("keeper observed a non-increasing sequence number")
	}
	if got := keeper.Dropped(); got != 0 {
		t.Errorf("keeping-up subscriber dropped %d events", got)
	}
	st := hub.Stats()
	if delivered != st.TotalPublished {
		t.Errorf("keeper delivered %d events, hub published %d", delivered, st.TotalPublished)
	}
	if lastSeq != hub.Seq() {
		t.Errorf("keeper's final seq %d != hub seq %d", lastSeq, hub.Seq())
	}
	if byKind[stream.KindAttach] != n || byKind[stream.KindDetach] != n {
		t.Errorf("lifecycle events: %d attach / %d detach, want %d each",
			byKind[stream.KindAttach], byKind[stream.KindDetach], n)
	}
	if byKind[stream.KindAnomaly]+byKind[stream.KindAudit] == 0 {
		t.Error("hammer published no anomaly or audit events")
	}
	// The slow subscriber's books must balance: every published event was
	// either enqueued to it or counted as dropped, nothing vanished.
	if got := slow.Enqueued() + slow.Dropped(); got != st.TotalPublished {
		t.Errorf("slow subscriber accounting: enqueued %d + dropped %d != published %d",
			slow.Enqueued(), slow.Dropped(), st.TotalPublished)
	}
	if slow.Dropped() == 0 {
		t.Error("slow subscriber with a 4-slot buffer never dropped")
	}
	t.Logf("published %d events (%d anomalies, %d audits), slow sub dropped %d",
		st.TotalPublished, byKind[stream.KindAnomaly], byKind[stream.KindAudit], slow.Dropped())
}

// TestStreamOverheadGuard pins the hub's price on the sealed check
// path: a checker with a hub attached (and zero anomalies) must stay
// within 1% of one with streaming disabled, and must not allocate.
// The hub additionally carries an attached durable journal — the
// strongest form of the contract: clean rounds never publish, so even
// with persistence enabled the sealed path never reaches the journal
// writer and its cost stays zero.
func TestStreamOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped with -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews the hub/no-hub ratio")
	}
	target := workload.TargetByName("fdc", true)
	r, err := bench.NewCheckerReplay(target, 60)
	if err != nil {
		t.Fatal(err)
	}
	hub := stream.NewHub()
	jrnl, err := journal.Open(journal.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	jrnl.Attach(hub)
	defer jrnl.Close()
	on := r.NewChecker(checker.WithObs(obs.NewRegistry()), sedspec.WithStream(hub))
	off := r.NewChecker(checker.WithObs(obs.NewRegistry()), sedspec.WithStream(nil))

	warmReplay(t, r, on, off)
	// Lifecycle events (the checker's attach) drain into the journal
	// asynchronously; wait for the writer to catch up with everything
	// the hub has published, then require the timed clean rounds below
	// to add nothing.
	catchup := time.Now().Add(5 * time.Second)
	for jrnl.Stats().Appended < hub.Stats().TotalPublished {
		if time.Now().After(catchup) {
			t.Fatalf("journal writer never caught up: %d appended, %d published",
				jrnl.Stats().Appended, hub.Stats().TotalPublished)
		}
		time.Sleep(time.Millisecond)
	}
	baseAppended := jrnl.Stats().Appended
	ratio, nsOn, nsOff, minAllocs := overheadRatio(t, r, on, off)
	if minAllocs != 0 {
		t.Fatalf("steady-state chunks allocated %d times in every window", minAllocs)
	}
	t.Logf("sealed check: hub attached %.1f ns/op, disabled %.1f ns/op, ratio %.3f", nsOn, nsOff, ratio)
	// Budget: 1% (the streaming layer's contract — clean rounds never
	// touch the hub) plus 3% measurement slack for interleaved-chunk
	// timing noise.
	if ratio > 1.04 {
		t.Errorf("attached hub costs %.1f%% on the sealed path, want <= 1%% (+slack)", 100*(ratio-1))
	}
	// The clean rounds published nothing, so the journal saw nothing new:
	// persistence must be invisible to a healthy fleet.
	if st := jrnl.Stats(); st.Appended != baseAppended {
		t.Errorf("clean replay appended %d journal records, want 0", st.Appended-baseAppended)
	}
}

// TestStreamSubscriberChurn hammers the hub's attach/detach edges: four
// protected sessions publish continuously while short-lived subscribers
// join and leave mid-stream. For every subscriber — however brief its
// window — the per-kind books must balance exactly:
//
//	published-in-window[k] == enqueued[k] + dropped[k]
//
// because Subscribe, Close, and every Publish serialize on the hub
// lock. Run under -race this also proves the churn path is data-race
// free.
func TestStreamSubscriberChurn(t *testing.T) {
	_, latt := setup(t, testdev.Options{})
	spec := learn(t, latt).Spec

	hub := stream.NewHub()
	sh := sedspec.NewSharedChecker(spec,
		checker.WithObs(obs.NewRegistry()),
		checker.WithMode(checker.ModeEnhancement),
		sedspec.WithStream(hub))

	const n = 4
	p := machine.NewPool(n, lifecycleBuild)
	chks := make([]*checker.Checker, n)
	for i, s := range p.Sessions() {
		chks[i] = sedspec.ProtectShared(s.Attached(), sh, checker.WithHalt(func() {}))
	}

	// Churners: subscribe with tiny buffers (forcing drops), drain a
	// little, close, check the invariant, repeat — all while the hammer
	// publishes from four goroutines.
	stopChurn := make(chan struct{})
	var churnWG sync.WaitGroup
	var windows, eventsSeen uint64
	var badWindows int32
	for c := 0; c < 3; c++ {
		churnWG.Add(1)
		go func(id int) {
			defer churnWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stopChurn:
					return
				default:
				}
				sub := hub.Subscribe(stream.WithBuffer(2 + id))
				for k := 0; k < 8; k++ {
					if _, ok := sub.TryRecv(); ok {
						atomic.AddUint64(&eventsSeen, 1)
					}
				}
				sub.Close()
				pub, enq, drop := sub.Accounting()
				for k := 0; k < stream.NumKinds; k++ {
					if pub[k] != enq[k]+drop[k] {
						atomic.AddInt32(&badWindows, 1)
						t.Errorf("churner %d window %d kind %s: published %d != enqueued %d + dropped %d",
							id, i, stream.Kind(k), pub[k], enq[k], drop[k])
						return
					}
				}
				atomic.AddUint64(&windows, 1)
			}
		}(c)
	}

	if err := p.Run(func(s *machine.Session) error {
		fuzzer.Hammer(s.Attached(), interp.SpacePIO, testdev.PortCmd, testdev.PortCount,
			uint64(1+s.ID()), 2000)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	close(stopChurn)
	churnWG.Wait()
	for _, c := range chks {
		c.Close()
	}

	if atomic.LoadInt32(&badWindows) != 0 {
		t.Fatalf("%d subscriber windows failed the accounting invariant", badWindows)
	}
	if windows == 0 {
		t.Fatal("no churn windows completed while sessions hammered")
	}
	// A subscriber that outlives the workload must balance against the
	// hub's full totals too.
	late := hub.Subscribe(stream.WithBuffer(1))
	late.Close()
	if pub, enq, drop := late.Accounting(); pub != enq || pub != drop || pub != [stream.NumKinds]uint64{} {
		t.Errorf("idle-window subscriber books not empty: %v %v %v", pub, enq, drop)
	}
	t.Logf("churn: %d subscriber windows balanced (%d events observed) against %d published",
		windows, eventsSeen, hub.Stats().TotalPublished)
}
