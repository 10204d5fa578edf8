package obs

import (
	"cmp"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// NumBuckets is the histogram width: bucket 0 holds exact zeros, bucket
// i >= 1 holds values in [2^(i-1), 2^i). Everything at or above 2^30
// lands in the last bucket.
const NumBuckets = 32

// BucketOf maps a value to its log2 bucket (bucket 0 holds exact
// zeros). Every log2 histogram in the process shares this shape.
func BucketOf(v uint64) int {
	b := bits.Len64(v)
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return b
}

// BucketLabel renders bucket i's value range for JSON and timelines.
func BucketLabel(i int) string {
	switch {
	case i <= 0:
		return "0"
	case i == 1:
		return "1"
	case i == NumBuckets-1:
		return fmt.Sprintf("%d+", uint64(1)<<(NumBuckets-2))
	default:
		return fmt.Sprintf("%d-%d", uint64(1)<<(i-1), uint64(1)<<i-1)
	}
}

// bank is one recorder's metric storage. It has a single writer (the
// session goroutine) but is read concurrently by snapshots, so every
// counter is atomic. The steps histogram doubles as the round counter:
// snapshots sum its buckets for the round total, which keeps a second
// counter off the hot path. Clean rounds reach the buckets through the
// recorder's pending image, one add per non-empty bucket at each
// Publish. The outcome matrix is touched only on the rare anomaly path.
type bank struct {
	// outcomes counts anomalous rounds by strategy × verdict. The
	// [StrategyNone][VerdictOK] cell is never written on the hot path;
	// snapshots fill it with rounds − anomalies.
	outcomes [NumStrategies][NumVerdicts]atomic.Uint64
	// steps[b] counts rounds whose step count falls in bucket b.
	steps [NumBuckets]atomic.Uint64
}

// count folds one round into the bank.
func (b *bank) count(steps uint32, strat uint8, v Verdict) {
	b.steps[BucketOf(uint64(steps))].Add(1)
	if v != VerdictOK {
		b.outcomes[strat%NumStrategies][v%NumVerdicts].Add(1)
	}
}

// Hist is an immutable histogram snapshot.
type Hist struct {
	Buckets [NumBuckets]uint64
}

// Count returns the total number of recorded values.
func (h *Hist) Count() uint64 {
	var n uint64
	for _, b := range h.Buckets {
		n += b
	}
	return n
}

// merge adds o into h.
func (h *Hist) merge(o *Hist) {
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
}

// Quantile estimates the q-quantile (0 < q <= 1) of the recorded
// values by walking the cumulative bucket counts and interpolating
// linearly inside the bucket the rank lands in. Bucket i >= 1 spans
// [2^(i-1), 2^i), so the estimate is off by at most a factor of 2 —
// the bucket's own width — and is exact for bucket 0 (zeros) and
// bucket 1 (ones). Returns 0 for an empty histogram; q outside (0,1]
// is clamped.
func (h *Hist) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	if q <= 0 {
		q = 1e-9
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, b := range h.Buckets {
		if b == 0 {
			continue
		}
		prev := cum
		cum += float64(b)
		if cum < rank {
			continue
		}
		switch i {
		case 0:
			return 0
		case 1:
			return 1
		}
		lo := float64(uint64(1) << (i - 1))
		hi := lo * 2
		if i == NumBuckets-1 {
			// The last bucket is open-ended; report its lower edge rather
			// than inventing an upper one.
			return lo
		}
		frac := (rank - prev) / float64(b)
		return lo + frac*(hi-lo)
	}
	return 0
}

// MetricsSnapshot is one (tenant, device) row's (or one session's)
// counters at a point in time. It is a plain comparable value: merging
// and equality need no locks, which is what lets aggregate accounting be
// tested as "registry snapshot == sum of per-session snapshots".
type MetricsSnapshot struct {
	// Tenant is the control-plane namespace of the engine that opened
	// the recorders (empty for single-tenant CLI runs).
	Tenant string
	Device string
	// Rounds is the number of checked I/Os recorded.
	Rounds uint64
	// Outcomes[strategy][verdict] counts rounds; [0][VerdictOK] holds
	// the clean rounds.
	Outcomes [NumStrategies][NumVerdicts]uint64
	// Steps buckets the sealed-walker step count per round.
	Steps Hist
}

// Merge returns the field-wise sum of two snapshots (the Tenant and
// Device names are taken from the receiver).
func (m MetricsSnapshot) Merge(o MetricsSnapshot) MetricsSnapshot {
	m.Rounds += o.Rounds
	for s := range m.Outcomes {
		for v := range m.Outcomes[s] {
			m.Outcomes[s][v] += o.Outcomes[s][v]
		}
	}
	m.Steps.merge(&o.Steps)
	return m
}

// Anomalies returns the total anomalous rounds in the snapshot.
func (m *MetricsSnapshot) Anomalies() uint64 {
	var n uint64
	for s := 1; s < NumStrategies; s++ {
		for v := 0; v < NumVerdicts; v++ {
			n += m.Outcomes[s][v]
		}
	}
	return n
}

// MarshalJSON renders the snapshot in the tenant × device × strategy × verdict
// shape embedders export. Buckets and outcomes
// are emitted as ordered slices (ascending bucket index; strategy then
// verdict order), not maps, so the export is byte-for-byte deterministic
// and semantically ordered — stable for CI diffs and golden tests.
func (m MetricsSnapshot) MarshalJSON() ([]byte, error) {
	type bucketJSON struct {
		Range string `json:"range"`
		Count uint64 `json:"count"`
	}
	type histJSON struct {
		Count   uint64       `json:"count"`
		Buckets []bucketJSON `json:"buckets,omitempty"`
	}
	hist := func(h *Hist) histJSON {
		out := histJSON{Count: h.Count()}
		for i, b := range h.Buckets {
			if b != 0 {
				out.Buckets = append(out.Buckets, bucketJSON{Range: BucketLabel(i), Count: b})
			}
		}
		return out
	}
	type outcomeJSON struct {
		Strategy string `json:"strategy"`
		Verdict  string `json:"verdict"`
		Count    uint64 `json:"count"`
	}
	var outcomes []outcomeJSON
	for s := 0; s < NumStrategies; s++ {
		for v := 0; v < NumVerdicts; v++ {
			if n := m.Outcomes[s][v]; n != 0 {
				outcomes = append(outcomes, outcomeJSON{
					Strategy: StrategyName(uint8(s)),
					Verdict:  Verdict(v).String(),
					Count:    n,
				})
			}
		}
	}
	return json.Marshal(struct {
		Tenant    string        `json:"tenant,omitempty"`
		Device    string        `json:"device"`
		Rounds    uint64        `json:"rounds"`
		Anomalies uint64        `json:"anomalies"`
		Outcomes  []outcomeJSON `json:"outcomes,omitempty"`
		Steps     histJSON      `json:"steps"`
	}{m.Tenant, m.Device, m.Rounds, m.Anomalies(), outcomes, hist(&m.Steps)})
}

// Snapshot is a point-in-time view of a whole registry, one row per
// (tenant, device), sorted by tenant and then device.
type Snapshot struct {
	Devices []MetricsSnapshot `json:"devices"`
}

// Row returns the (tenant, device) row (zero value if absent).
func (s Snapshot) Row(tenant, device string) MetricsSnapshot {
	for _, d := range s.Devices {
		if d.Tenant == tenant && d.Device == device {
			return d
		}
	}
	return MetricsSnapshot{Tenant: tenant, Device: device}
}

// rowKey names one registry row.
type rowKey struct{ tenant, device string }

// Registry tracks every live Recorder plus the folded banks of closed
// ones, one row per (tenant, device). The registry itself is off the hot
// path entirely: recording touches only the recorder's own bank; the
// registry lock is taken on open/close/snapshot.
type Registry struct {
	mu      sync.Mutex
	recs    []*Recorder
	retired map[rowKey]MetricsSnapshot
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{retired: make(map[rowKey]MetricsSnapshot)}
}

// defaultRegistry is the process-wide registry checkers register with
// unless redirected.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Recorder is one session's flight recorder plus its metric bank. One
// goroutine writes it; see the package comment for the read contract.
type Recorder struct {
	reg     *Registry
	row     rowKey
	session uint32

	seq    uint64
	ring   Ring
	bank   bank
	closed bool

	// pend counts the clean rounds not yet published, per steps bucket,
	// so counting a round is one plain increment.
	pend [NumBuckets]uint32
}

// NewRecorder opens a recorder for one enforcement session and
// registers it under the (tenant, device) row; tenant is empty for
// single-tenant runs. ringSize <= 0 selects DefaultRingSize.
func (g *Registry) NewRecorder(tenant, device string, session int, ringSize int) *Recorder {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	if session < 0 {
		session = 0
	}
	r := &Recorder{
		reg:     g,
		row:     rowKey{tenant, device},
		session: uint32(session & math.MaxUint32),
		ring:    newRing(ringSize),
	}
	g.mu.Lock()
	g.recs = append(g.recs, r)
	g.mu.Unlock()
	return r
}

// Device returns the device name the recorder traces.
func (r *Recorder) Device() string { return r.row.device }

// Session returns the guest-session ID stamped into events.
func (r *Recorder) Session() int { return int(r.session) }

// Registry returns the registry the recorder reports into.
func (r *Recorder) Registry() *Registry { return r.reg }

// Append claims the next ring slot and stamps the sequencing fields
// (Seq, Session, Tick). The caller must assign every payload field — the
// slot is not cleared, so an unassigned field would leak the overwritten
// event's value — and counts the round with Count. Claiming the slot
// first lets the check hot path write each event field exactly once,
// directly into the ring.
func (r *Recorder) Append(tick int64) *Event {
	r.seq++
	ev := &r.ring.slots[r.ring.head&r.ring.mask]
	r.ring.head++
	ev.Seq, ev.Session, ev.Tick = r.seq, r.session, tick
	return ev
}

// Count folds one round into the recorder's metrics. A clean round is a
// plain increment of its pending bucket and reaches the atomic bank at
// the next Publish. An anomalous round publishes everything pending and then
// commits straight to the bank, so the bank never counts a later round
// ahead of an earlier one and Snapshot keeps rounds >= anomalies.
// Single-writer, like Append.
func (r *Recorder) Count(steps uint32, strat uint8, v Verdict) {
	if v != VerdictOK {
		r.Publish()
		r.bank.count(steps, strat, v)
		return
	}
	r.pend[BucketOf(uint64(steps))]++
}

// Publish folds the pending clean-round counts into the atomic bank that
// Snapshot reads. The session's owner calls it on its own schedule (the
// checker: every 64 rounds, before an anomaly, on a spec adoption and on
// owner-side reads); Close calls it too, so final totals are exact.
func (r *Recorder) Publish() {
	for i, n := range r.pend {
		if n != 0 {
			r.bank.steps[i].Add(uint64(n))
			r.pend[i] = 0
		}
	}
}

// Ring exposes the recorder's event ring (owner goroutine or quiesced
// session only).
func (r *Recorder) Ring() *Ring { return &r.ring }

// Snapshot reads the recorder's own metric bank. Safe to call from any
// goroutine while the session runs; it sees the rounds published so far,
// not those still pending (see Publish).
func (r *Recorder) Snapshot() MetricsSnapshot {
	m := MetricsSnapshot{Tenant: r.row.tenant, Device: r.row.device}
	// Read outcomes before buckets: count commits the histogram bucket
	// first and the outcome second, so this read order guarantees every
	// anomaly the snapshot counts also has its round counted — mid-run
	// snapshots keep Rounds >= Anomalies no matter how the reads
	// interleave with running sessions. (Reading buckets first leaves a
	// window where a just-committed anomaly shows up with no round.)
	for s := 0; s < NumStrategies; s++ {
		for v := 0; v < NumVerdicts; v++ {
			m.Outcomes[s][v] = r.bank.outcomes[s][v].Load()
		}
	}
	for i := range r.bank.steps {
		n := r.bank.steps[i].Load()
		m.Steps.Buckets[i] = n
		m.Rounds += n
	}
	m.Outcomes[StrategyNone][VerdictOK] = m.Rounds - m.Anomalies()
	return m
}

// Close folds the recorder's counters into the registry's retired bank
// and unregisters it, so aggregate accounting survives session churn.
// Idempotent; the ring stays readable after Close.
func (r *Recorder) Close() {
	r.Publish()
	g := r.reg
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	for i, rec := range g.recs {
		if rec == r {
			g.recs = append(g.recs[:i], g.recs[i+1:]...)
			break
		}
	}
	snap := r.Snapshot()
	if prev, ok := g.retired[r.row]; ok {
		snap = prev.Merge(snap)
	}
	g.retired[r.row] = snap
}

// Snapshot merges every live recorder's bank plus the retired banks
// into (tenant, device) rows. It may be called while sessions run: each
// counter is exact at its atomic load, with cross-field skew bounded by
// in-flight rounds.
func (g *Registry) Snapshot() Snapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	rows := maps.Clone(g.retired)
	for _, r := range g.recs {
		m := r.Snapshot()
		if prev, ok := rows[r.row]; ok {
			m = prev.Merge(m)
		}
		rows[r.row] = m
	}
	out := Snapshot{Devices: make([]MetricsSnapshot, 0, len(rows))}
	for _, m := range rows {
		out.Devices = append(out.Devices, m)
	}
	slices.SortFunc(out.Devices, func(a, b MetricsSnapshot) int {
		return cmp.Or(cmp.Compare(a.Tenant, b.Tenant), cmp.Compare(a.Device, b.Device))
	})
	return out
}

// Recorders reports the number of live recorders.
func (g *Registry) Recorders() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.recs)
}
