// Package stream is the telemetry plane of the runtime-protection
// stack: a bounded, non-blocking broadcast hub the enforcement engines
// publish typed, sequence-numbered events into — blocked anomalies with
// their frozen forensic context, enhancement audits, spec hot-swaps and
// store publications, session attach/detach — and that any number of subscribers consume through
// per-subscriber rings with exact drop accounting.
//
// The contract the checker's hot path depends on: Publish never blocks
// and never allocates. A publish is one mutex-protected pass that
// assigns the next global sequence number, stores the event into the
// hub's recent-events ring, and offers it to each subscriber's ring; a
// full ring drops the event for that subscriber (drop-newest) and
// counts the drop — publishers never wait for consumers. Because the
// sequence number is assigned under the same lock that fans out, every
// subscriber observes a strictly increasing subsequence of the global
// order: a subscriber that keeps up sees every matching event exactly
// once, in seq order, and one that falls behind can reconcile exactly
// how much it missed from its drop counter.
//
// The hub sits off the check hot path entirely: clean check rounds
// never touch it. Only the rare paths publish — anomalies, warnings,
// session lifecycle and swaps. Fleet health is pulled from /fleet, not
// published.
package stream

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"sedspec/internal/obs"
)

// Kind classifies a telemetry event.
type Kind uint8

const (
	// KindAnomaly is a blocked anomaly, carrying the frozen
	// flight-recorder context when recording was enabled.
	KindAnomaly Kind = iota
	// KindAudit is a non-blocking warning raised in enhancement mode,
	// carrying the audit record the enhancement pipeline replays.
	KindAudit
	// KindSwap is a spec hot-swap applied to a shared engine.
	KindSwap
	// KindAttach is an enforcement session opening.
	KindAttach
	// KindDetach is an enforcement session closing, carrying its final
	// counters.
	KindDetach
	// KindSpec is a spec version published into a spec store.
	KindSpec
	// KindHealth is a FleetSnapshot. Nothing publishes it any more; the
	// kind and its payload stay decodable because journals written by
	// older builds hold health records.
	KindHealth
	// KindDrop is a synthesized gap notice: not published by engines,
	// emitted by tailing endpoints when a subscriber's drop counter
	// advances, so a live tail shows where its view has holes.
	KindDrop

	// NumKinds sizes per-kind counter arrays.
	NumKinds = 8
)

var kindNames = [NumKinds]string{
	"anomaly", "audit", "swap", "attach", "detach", "spec", "health", "drop",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON renders the kind as its string name, so NDJSON consumers
// never see raw enum codes.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON parses a kind name back to its code.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	got, err := KindByName(s)
	if err != nil {
		return err
	}
	*k = got
	return nil
}

// KindByName resolves a kind name ("anomaly", "swap", ...).
func KindByName(name string) (Kind, error) {
	for i, n := range kindNames {
		if n == name {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("stream: unknown event kind %q", name)
}

// KindMask selects a set of event kinds, one bit per Kind.
type KindMask uint16

// MaskAll selects every kind.
const MaskAll = KindMask(1<<NumKinds - 1)

// MaskOf builds a mask from kinds.
func MaskOf(kinds ...Kind) KindMask {
	var m KindMask
	for _, k := range kinds {
		m |= 1 << k
	}
	return m
}

// Has reports whether the mask selects k.
func (m KindMask) Has(k Kind) bool { return m&(1<<k) != 0 }

// ParseKinds parses a comma-separated kind list ("anomaly,swap") into a
// mask. An empty string selects everything.
func ParseKinds(s string) (KindMask, error) {
	if s == "" {
		return MaskAll, nil
	}
	var m KindMask
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		k, err := KindByName(name)
		if err != nil {
			return 0, err
		}
		m |= 1 << k
	}
	if m == 0 {
		return MaskAll, nil
	}
	return m, nil
}

// AnomalyInfo is the payload of a KindAnomaly event: the blocked
// anomaly's classification plus the frozen flight-recorder context.
type AnomalyInfo struct {
	Strategy string              `json:"strategy"`
	Severity string              `json:"severity"`
	Detail   string              `json:"detail"`
	Round    uint64              `json:"round"`
	Addr     uint64              `json:"addr"`
	Write    bool                `json:"write"`
	Len      int                 `json:"len"`
	EdgeKind string              `json:"edge_kind,omitempty"`
	EdgeSel  uint64              `json:"edge_sel,omitempty"`
	Ctx      *obs.AnomalyContext `json:"ctx,omitempty"`
}

// AuditInfo is the payload of a KindAudit event: one non-blocking
// warning's replayable record.
type AuditInfo struct {
	Strategy string `json:"strategy"`
	Detail   string `json:"detail"`
	Round    uint64 `json:"round"`
	Addr     uint64 `json:"addr"`
	Write    bool   `json:"write"`
	Len      int    `json:"len"`
}

// SwapInfo is the payload of a KindSwap event.
type SwapInfo struct {
	FromGen uint64 `json:"from_gen"`
	ToGen   uint64 `json:"to_gen"`
}

// SpecInfo is the payload of a KindSpec event: a version published into
// a spec store.
type SpecInfo struct {
	Generation uint64 `json:"generation"`
	Parent     uint64 `json:"parent,omitempty"`
	CreatedBy  string `json:"created_by,omitempty"`
	Blob       string `json:"blob,omitempty"`
}

// SessionInfo is the payload of a KindDetach event: the session's final
// counters at close.
type SessionInfo struct {
	Rounds   uint64 `json:"rounds"`
	Blocked  uint64 `json:"blocked"`
	Warnings uint64 `json:"warnings"`
}

// Event is one telemetry record. Seq is the hub-wide publication number
// (1-based, strictly increasing in publish order); exactly one payload
// pointer is set, matching Kind. Session is -1 for engine-level events
// (swaps, spec publications).
type Event struct {
	Seq    uint64 `json:"seq"`
	TimeNs int64  `json:"time_unix_ns"`
	Kind   Kind   `json:"kind"`
	// Tenant is the control-plane namespace the producing engine was
	// opened under (empty for single-tenant CLI runs).
	Tenant  string `json:"tenant,omitempty"`
	Device  string `json:"device,omitempty"`
	Session int    `json:"session"`
	SpecGen uint64 `json:"spec_gen,omitempty"`

	Anomaly *AnomalyInfo   `json:"anomaly,omitempty"`
	Audit   *AuditInfo     `json:"audit,omitempty"`
	Swap    *SwapInfo      `json:"swap,omitempty"`
	Detach  *SessionInfo   `json:"detach,omitempty"`
	Spec    *SpecInfo      `json:"spec,omitempty"`
	Health  *FleetSnapshot `json:"health,omitempty"`
	// Dropped is set on synthesized KindDrop notices: how many events
	// the tail's subscriber ring shed since the previous notice.
	Dropped uint64 `json:"dropped,omitempty"`
}

// String renders the event as one human-readable line (the format
// `sedspec logs` prints without -json).
func (e *Event) String() string {
	ts := time.Unix(0, e.TimeNs).Format("15:04:05.000")
	var sb strings.Builder
	fmt.Fprintf(&sb, "%8d %s %-7s", e.Seq, ts, e.Kind)
	if e.Tenant != "" {
		fmt.Fprintf(&sb, " %s:", e.Tenant)
	}
	if e.Device != "" {
		fmt.Fprintf(&sb, " %-8s", e.Device)
	}
	if e.Session >= 0 {
		fmt.Fprintf(&sb, " s%-3d", e.Session)
	}
	if e.SpecGen > 0 {
		fmt.Fprintf(&sb, " gen%-2d", e.SpecGen)
	}
	switch {
	case e.Anomaly != nil:
		a := e.Anomaly
		dir := "rd"
		if a.Write {
			dir = "wr"
		}
		fmt.Fprintf(&sb, " round %d %s %#x blocked %s (%s): %s",
			a.Round, dir, a.Addr, a.Strategy, a.Severity, a.Detail)
	case e.Audit != nil:
		a := e.Audit
		dir := "rd"
		if a.Write {
			dir = "wr"
		}
		fmt.Fprintf(&sb, " round %d %s %#x warned %s: %s",
			a.Round, dir, a.Addr, a.Strategy, a.Detail)
	case e.Swap != nil:
		fmt.Fprintf(&sb, " spec hot-swap gen %d -> %d", e.Swap.FromGen, e.Swap.ToGen)
	case e.Detach != nil:
		fmt.Fprintf(&sb, " closed: %d rounds, %d blocked, %d warnings",
			e.Detach.Rounds, e.Detach.Blocked, e.Detach.Warnings)
	case e.Spec != nil:
		fmt.Fprintf(&sb, " stored gen %d by %s", e.Spec.Generation, e.Spec.CreatedBy)
	case e.Health != nil:
		fmt.Fprintf(&sb, " fleet: %d devices, %d sessions", len(e.Health.Devices), e.Health.Sessions)
	case e.Kind == KindDrop:
		fmt.Fprintf(&sb, " tail fell behind: %d events dropped", e.Dropped)
	}
	return sb.String()
}

// RecentCap bounds the hub's recent-events ring, which backs /journal
// history on a process without a disk journal.
const RecentCap = 256

// DefaultSubBuffer is a subscriber ring's capacity unless WithBuffer
// overrides it.
const DefaultSubBuffer = 1024

// initialSubBuffer is the slot count a subscriber ring starts with; it
// doubles, up to its capacity, whenever an event finds it full, so an
// idle or keeping-up subscriber holds a few slots, not its capacity.
const initialSubBuffer = 16

// Hub is the broadcast fan-out point. The zero value is not usable;
// construct with NewHub. A nil *Hub is a valid sink that drops
// everything, so publish sites need no nil guards beyond the pointer
// test Publish itself performs.
type Hub struct {
	mu        sync.Mutex
	subs      []*Sub
	seq       uint64
	published [NumKinds]uint64
	dropped   [NumKinds]uint64
	// recent is an insertion-order ring of the last RecentCap published
	// events: rpos is the next write slot, rcount the live entry count.
	recent [RecentCap]Event
	rpos   int
	rcount int
}

// NewHub returns an empty hub.
func NewHub() *Hub { return &Hub{} }

// defaultHub is the process-wide hub engines publish into unless
// redirected with checker.WithStream, mirroring obs.Default().
var defaultHub = NewHub()

// Default returns the process-wide hub.
func Default() *Hub { return defaultHub }

// Publish assigns the event the next sequence number, stamps its wall
// time if unset, and offers it to every matching subscriber. It never
// blocks and never allocates; subscribers that cannot accept the event
// drop it (counted per subscriber and per kind on the hub). Publish on
// a nil hub is a no-op returning 0.
func (h *Hub) Publish(ev Event) uint64 {
	if h == nil {
		return 0
	}
	if ev.TimeNs == 0 {
		ev.TimeNs = time.Now().UnixNano()
	}
	h.mu.Lock()
	h.seq++
	ev.Seq = h.seq
	h.published[ev.Kind%NumKinds]++
	h.retain(ev)
	for _, s := range h.subs {
		if !s.mask.Has(ev.Kind) {
			continue
		}
		if !s.push(ev) {
			h.dropped[ev.Kind%NumKinds]++
		}
	}
	h.mu.Unlock()
	return ev.Seq
}

// retain stores ev into the recent ring; called with the hub lock held.
func (h *Hub) retain(ev Event) {
	h.recent[h.rpos] = ev
	h.rpos = (h.rpos + 1) % RecentCap
	if h.rcount < RecentCap {
		h.rcount++
	}
}

// ResumeAt moves the sequence counter forward to seq after a restart,
// so post-restart publications extend the journaled total order instead
// of re-issuing already journaled sequence numbers (a `sedspec logs
// -follow` client's cursor keeps working across the restart). It never
// moves the counter back. Call before any subscriber attaches.
func (h *Hub) ResumeAt(seq uint64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.seq = max(h.seq, seq)
	h.mu.Unlock()
}

// Published returns how many events of kind k the hub has accepted.
func (h *Hub) Published(k Kind) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.published[k%NumKinds]
}

// Seq returns the last assigned sequence number (0 before any publish).
func (h *Hub) Seq() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.seq
}

// Recent returns up to limit of the most recent retained events
// matching mask, oldest first. limit <= 0 means all retained.
func (h *Hub) Recent(mask KindMask, limit int) []Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Event, 0, h.rcount)
	start := (h.rpos - h.rcount + RecentCap) % RecentCap
	for i := 0; i < h.rcount; i++ {
		ev := h.recent[(start+i)%RecentCap]
		if mask.Has(ev.Kind) {
			out = append(out, ev)
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// HubStats is a point-in-time summary of hub traffic.
type HubStats struct {
	Subscribers    int               `json:"subscribers"`
	TotalPublished uint64            `json:"total_published"`
	TotalDropped   uint64            `json:"total_dropped"`
	Published      map[string]uint64 `json:"published"`
	Dropped        map[string]uint64 `json:"dropped"`
}

// Stats summarizes the hub's counters (nonzero kinds only in the maps).
func (h *Hub) Stats() HubStats {
	if h == nil {
		return HubStats{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	st := HubStats{Subscribers: len(h.subs)}
	for k := 0; k < NumKinds; k++ {
		if n := h.published[k]; n != 0 {
			if st.Published == nil {
				st.Published = make(map[string]uint64)
			}
			st.Published[Kind(k).String()] = n
			st.TotalPublished += n
		}
		if n := h.dropped[k]; n != 0 {
			if st.Dropped == nil {
				st.Dropped = make(map[string]uint64)
			}
			st.Dropped[Kind(k).String()] = n
			st.TotalDropped += n
		}
	}
	return st
}

// SubOption configures a subscription.
type SubOption func(*Sub)

// WithBuffer sets the subscriber's ring capacity (default
// DefaultSubBuffer). The ring bounds how far the subscriber may lag
// before events drop.
func WithBuffer(n int) SubOption {
	return func(s *Sub) {
		if n > 0 {
			s.limit = n
		}
	}
}

// WithKinds restricts the subscription to the masked kinds (default
// MaskAll).
func WithKinds(m KindMask) SubOption {
	return func(s *Sub) {
		if m != 0 {
			s.mask = m
		}
	}
}

// Subscribe attaches a new subscriber. The returned Sub must be
// consumed by a single goroutine and closed when done.
func (h *Hub) Subscribe(opts ...SubOption) *Sub {
	s := &Sub{hub: h, mask: MaskAll, limit: DefaultSubBuffer, notify: make(chan struct{}, 1)}
	for _, o := range opts {
		o(s)
	}
	s.buf = make([]Event, min(initialSubBuffer, s.limit))
	h.mu.Lock()
	s.joinPub = h.published
	h.subs = append(h.subs, s)
	h.mu.Unlock()
	return s
}

// Sub is one subscriber's view of the hub: a bounded ring the hub
// pushes matching events into. One goroutine consumes it.
type Sub struct {
	hub  *Hub
	mask KindMask

	// joinPub and leavePub snapshot the hub's per-kind published
	// counters at Subscribe and Close, taken under the hub lock that
	// also serializes every publish — so the difference is exactly the
	// set of events the hub offered this subscriber while attached.
	joinPub  [NumKinds]uint64
	leavePub [NumKinds]uint64
	left     bool

	mu sync.Mutex
	// buf is the ring, grown by doubling up to limit slots.
	buf         []Event
	limit       int
	head, count int
	enqueued    uint64
	dropped     uint64
	enqByKind   [NumKinds]uint64
	dropByKind  [NumKinds]uint64
	closed      bool

	notify chan struct{}
}

// push offers one event; called with the hub lock held. Returns false
// when the ring was full at its capacity and the event dropped.
func (s *Sub) push(ev Event) bool {
	s.mu.Lock()
	if !s.closed && s.count == len(s.buf) && len(s.buf) < s.limit {
		s.grow()
	}
	if s.closed || s.count == len(s.buf) {
		if !s.closed {
			s.dropped++
			s.dropByKind[ev.Kind%NumKinds]++
		}
		s.mu.Unlock()
		return s.closed // a closed sub neither accepts nor counts drops
	}
	s.buf[(s.head+s.count)%len(s.buf)] = ev
	s.count++
	s.enqueued++
	s.enqByKind[ev.Kind%NumKinds]++
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
	return true
}

// grow doubles the full ring, up to limit slots, keeping its events in
// order; called with s.mu held.
func (s *Sub) grow() {
	buf := make([]Event, min(2*len(s.buf), s.limit))
	n := copy(buf, s.buf[s.head:])
	copy(buf[n:], s.buf[:s.head])
	s.buf, s.head = buf, 0
}

// Accounting returns, per kind, how many events the hub published
// during this subscription's attachment window (Subscribe to Close, or
// to now while still attached) alongside how many of those this
// subscriber enqueued and dropped. The delivery invariant holds exactly
// for every kind the subscription's mask selects:
//
//	published[k] == enqueued[k] + dropped[k]
//
// because the window edges and every publish serialize on the hub lock
// — there is no moment where an event is in the window but was offered
// to a half-attached subscriber.
func (s *Sub) Accounting() (published, enqueued, dropped [NumKinds]uint64) {
	h := s.hub
	var upper [NumKinds]uint64
	if h != nil {
		h.mu.Lock()
		if s.left {
			upper = s.leavePub
		} else {
			upper = h.published
		}
		h.mu.Unlock()
	}
	s.mu.Lock()
	enqueued = s.enqByKind
	dropped = s.dropByKind
	s.mu.Unlock()
	for k := 0; k < NumKinds; k++ {
		published[k] = upper[k] - s.joinPub[k]
	}
	return published, enqueued, dropped
}

// TryRecv pops the oldest buffered event without blocking. The slot is
// zeroed as it is handed out, so a consumed event's payload is freed
// with the consumer's copy, not kept until the ring wraps onto it.
func (s *Sub) TryRecv() (Event, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 {
		return Event{}, false
	}
	ev := s.buf[s.head]
	s.buf[s.head] = Event{}
	s.head = (s.head + 1) % len(s.buf)
	s.count--
	return ev, true
}

// Recv pops the oldest buffered event, waiting for one if the ring is
// empty. It returns ok=false when done closes or when the subscription
// is closed and fully drained — buffered events are always delivered
// before the close is reported.
func (s *Sub) Recv(done <-chan struct{}) (Event, bool) {
	for s.Wait(done) {
		if ev, ok := s.TryRecv(); ok {
			return ev, true
		}
	}
	return Event{}, false
}

// Wait blocks until the ring holds an event, without popping it. It
// returns false when done closes or when the subscription is closed and
// fully drained.
func (s *Sub) Wait(done <-chan struct{}) bool {
	for {
		s.mu.Lock()
		n, closed := s.count, s.closed
		s.mu.Unlock()
		if n > 0 {
			return true
		}
		if closed {
			return false
		}
		select {
		case <-s.notify:
		case <-done:
			return false
		}
	}
}

// Enqueued returns how many events were accepted into the ring.
func (s *Sub) Enqueued() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enqueued
}

// Dropped returns how many matching events were shed because the ring
// was full. The delivery invariant: for any quiesced hub,
// published(matching kinds) == enqueued + dropped.
func (s *Sub) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Close detaches the subscriber from the hub. Buffered events remain
// readable through TryRecv/Recv; Recv reports ok=false once drained.
// Idempotent.
func (s *Sub) Close() {
	h := s.hub
	if h != nil {
		h.mu.Lock()
		for i, sub := range h.subs {
			if sub == s {
				h.subs = append(h.subs[:i], h.subs[i+1:]...)
				break
			}
		}
		if !s.left {
			s.left = true
			s.leavePub = h.published
		}
		h.mu.Unlock()
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}
