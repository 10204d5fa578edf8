package stream

import (
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"sedspec/internal/obs"
)

// BuildInfo identifies the binary producing telemetry, resolved once
// from the runtime's embedded build information.
type BuildInfo struct {
	GoVersion string `json:"go_version"`
	Path      string `json:"path,omitempty"`
	Version   string `json:"version,omitempty"`
	Revision  string `json:"vcs_revision,omitempty"`
	Time      string `json:"vcs_time,omitempty"`
	Modified  bool   `json:"vcs_modified,omitempty"`
}

var (
	buildOnce sync.Once
	buildInfo BuildInfo
)

// Build returns the process's build identity (module version, VCS
// revision, go version). Every FleetSnapshot carries it, so exported
// telemetry is attributable to the binary that produced it.
func Build() BuildInfo {
	buildOnce.Do(func() {
		buildInfo = BuildInfo{}
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		buildInfo.GoVersion = bi.GoVersion
		buildInfo.Path = bi.Main.Path
		buildInfo.Version = bi.Main.Version
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				buildInfo.Revision = s.Value
			case "vcs.time":
				buildInfo.Time = s.Value
			case "vcs.modified":
				buildInfo.Modified = s.Value == "true"
			}
		}
	})
	return buildInfo
}

// GenCoverage is one spec generation's ES-CFG coverage rollup.
type GenCoverage struct {
	Generation    uint64 `json:"generation"`
	BlocksCovered int    `json:"blocks_covered"`
	TotalBlocks   int    `json:"total_blocks"`
	EdgesCovered  int    `json:"edges_covered"`
	TotalEdges    int    `json:"total_edges"`
}

// EngineStatus is what one enforcement engine contributes to a fleet
// snapshot beyond its metrics-registry row: session registry size,
// current generation, swap count, dropped warnings and live coverage.
// Round and anomaly counts are not here: the registry row is their one
// source. Produced by checker.Shared.EngineStatus; registered with
// Health.AddEngine.
type EngineStatus struct {
	Device string `json:"device"`
	// Tenant is the control-plane namespace the engine was opened under
	// (empty for single-tenant CLI engines); with Device it names the
	// fleet row the status folds into.
	Tenant     string `json:"tenant,omitempty"`
	Generation uint64 `json:"generation"`
	Sessions   int    `json:"sessions"`
	Swaps      uint64 `json:"swaps"`
	// WarningsDropped counts warned rounds whose records the engine did
	// not keep because its pending buffers were full
	// (checker.MaxPendingWarnings).
	WarningsDropped uint64       `json:"warnings_dropped,omitempty"`
	Coverage        *GenCoverage `json:"coverage,omitempty"`
}

// DeviceHealth is one (tenant, device) row of a FleetSnapshot; Tenant is
// empty for single-tenant CLI runs. Each field has one source: rounds,
// anomaly outcomes and the quantiles come from the metrics registry;
// sessions, generation, swaps, dropped warnings and coverage from the
// row's engine; journal baselines add pre-restart history.
type DeviceHealth struct {
	Device    string `json:"device"`
	Tenant    string `json:"tenant,omitempty"`
	Rounds    uint64 `json:"rounds"`
	Anomalies uint64 `json:"anomalies"`
	Blocked   uint64 `json:"blocked"`
	Warned    uint64 `json:"warned"`
	// WarningsDropped counts warned rounds whose records the device's
	// engines dropped at their pending-warning bound.
	WarningsDropped uint64 `json:"warnings_dropped,omitempty"`
	Swaps           uint64 `json:"swaps,omitempty"`
	Sessions        int    `json:"sessions"`
	Generation      uint64 `json:"generation,omitempty"`

	// Steps-per-round quantiles, interpolated from the log2 histogram
	// buckets; see obs.Hist.Quantile for the error bound.
	StepsP50 float64 `json:"steps_p50"`
	StepsP90 float64 `json:"steps_p90"`
	StepsP99 float64 `json:"steps_p99"`

	Coverage *GenCoverage `json:"coverage,omitempty"`
}

// JournalStatus is the durable journal's contribution to a fleet
// snapshot: on-disk footprint, write progress, and the health of the
// write path itself (drops, torn-tail truncations, fsync latency).
// Defined here rather than in the journal package so the aggregator
// does not import its own consumer; the journal fills it via
// Health.SetJournal.
type JournalStatus struct {
	Dir         string  `json:"dir"`
	Segments    int     `json:"segments"`
	Bytes       int64   `json:"bytes"`
	Records     uint64  `json:"records"`
	LastSeq     uint64  `json:"last_seq,omitempty"`
	Dropped     uint64  `json:"dropped"`
	Truncations uint64  `json:"truncations"`
	Fsyncs      uint64  `json:"fsyncs"`
	FsyncP99Us  float64 `json:"fsync_p99_us"`
}

// FleetSnapshot is the health aggregator's fold at one read: per-device
// counters and quantiles, hub traffic, and the build identity of the
// producing binary.
type FleetSnapshot struct {
	TimeUnixNs int64          `json:"time_unix_ns"`
	UptimeSec  float64        `json:"uptime_sec"`
	Build      BuildInfo      `json:"build"`
	Stream     HubStats       `json:"stream"`
	Devices    []DeviceHealth `json:"devices"`
	// Sessions is the fleet-wide open session count, summed over the
	// registered engines.
	Sessions int `json:"sessions"`
	// Journal reports the durable journal's state when one is attached
	// (Health.SetJournal); nil when the daemon runs without persistence.
	Journal *JournalStatus `json:"journal,omitempty"`
}

// Device returns the row for the named device (nil if absent).
func (f *FleetSnapshot) Device(name string) *DeviceHealth {
	for i := range f.Devices {
		if f.Devices[i].Device == name {
			return &f.Devices[i]
		}
	}
	return nil
}

// engineSource is a registered engine poll with a removal handle.
type engineSource struct {
	id  uint64
	src func() EngineStatus
}

// BaselineRow is history folded back into the live fleet view: counts a
// device had accumulated before the current process started, rebuilt
// from the journal on boot. Snapshot adds baselines into the matching
// (tenant, device) rows so /fleet does not reset to zero on restart.
type BaselineRow struct {
	Tenant     string
	Device     string
	Rounds     uint64
	Blocked    uint64
	Warned     uint64
	Swaps      uint64
	Generation uint64
}

// Health folds the metrics registry and registered engine sources into
// a FleetSnapshot on every read. It is pull-only: it runs no goroutine,
// publishes nothing, and keeps no state between reads, so two reads
// with no traffic between them return the same rows.
type Health struct {
	reg   *obs.Registry
	hub   *Hub
	start time.Time

	mu        sync.Mutex
	engines   []engineSource
	engineSeq uint64
	baselines []BaselineRow
	journal   func() JournalStatus
}

// NewHealth builds an aggregator over a registry and hub (both may be
// the process defaults). Engines register with AddEngine.
func NewHealth(reg *obs.Registry, hub *Hub) *Health {
	if reg == nil {
		reg = obs.Default()
	}
	if hub == nil {
		hub = Default()
	}
	return &Health{reg: reg, hub: hub, start: time.Now()}
}

// AddEngine registers a live engine source (typically
// Shared.EngineStatus bound as a method value) and returns a func that
// unregisters it. Sources are polled on every Snapshot; an engine that
// is being torn down (a daemon tenant deleted mid-flight) must be
// removed before its Shared is abandoned. The remove func is
// idempotent.
func (h *Health) AddEngine(src func() EngineStatus) (remove func()) {
	h.mu.Lock()
	h.engineSeq++
	id := h.engineSeq
	h.engines = append(h.engines, engineSource{id: id, src: src})
	h.mu.Unlock()
	return func() {
		h.mu.Lock()
		for i, e := range h.engines {
			if e.id == id {
				h.engines = append(h.engines[:i], h.engines[i+1:]...)
				break
			}
		}
		h.mu.Unlock()
	}
}

// AddBaseline registers pre-restart history rows (rebuilt from the
// journal) to fold into every future Snapshot. Appends to any rows
// already registered.
func (h *Health) AddBaseline(rows []BaselineRow) {
	h.mu.Lock()
	h.baselines = append(h.baselines, rows...)
	h.mu.Unlock()
}

// SetJournal attaches the durable journal's status source; every
// Snapshot carries its result. A nil src detaches.
func (h *Health) SetJournal(src func() JournalStatus) {
	h.mu.Lock()
	h.journal = src
	h.mu.Unlock()
}

// Snapshot folds the current state into a FleetSnapshot. Safe to call
// from any goroutine while sessions run.
func (h *Health) Snapshot() *FleetSnapshot {
	now := time.Now()
	snap := h.reg.Snapshot()

	h.mu.Lock()
	srcs := append([]engineSource(nil), h.engines...)
	baselines := h.baselines
	journal := h.journal
	h.mu.Unlock()
	// Poll engines outside the aggregator lock: a source takes its own
	// engine's registry lock.
	statuses := make([]EngineStatus, 0, len(srcs))
	for _, s := range srcs {
		statuses = append(statuses, s.src())
	}

	out := &FleetSnapshot{
		TimeUnixNs: now.UnixNano(),
		UptimeSec:  now.Sub(h.start).Seconds(),
		Build:      Build(),
		Stream:     h.hub.Stats(),
	}

	type rowKey struct{ tenant, device string }
	rows := make(map[rowKey]*DeviceHealth, len(snap.Devices))
	row := func(tenant, device string) *DeviceHealth {
		k := rowKey{tenant, device}
		d := rows[k]
		if d == nil {
			d = &DeviceHealth{Device: device, Tenant: tenant}
			rows[k] = d
		}
		return d
	}
	for _, m := range snap.Devices {
		d := row(m.Tenant, m.Device)
		d.Rounds = m.Rounds
		d.Anomalies = m.Anomalies()
		for s := 0; s < obs.NumStrategies; s++ {
			d.Blocked += m.Outcomes[s][obs.VerdictBlocked]
			d.Warned += m.Outcomes[s][obs.VerdictWarned]
		}
		d.StepsP50 = m.Steps.Quantile(0.50)
		d.StepsP90 = m.Steps.Quantile(0.90)
		d.StepsP99 = m.Steps.Quantile(0.99)
	}
	for _, es := range statuses {
		d := row(es.Tenant, es.Device)
		d.Sessions += es.Sessions
		d.WarningsDropped += es.WarningsDropped
		d.Swaps += es.Swaps
		out.Sessions += es.Sessions
		d.Generation = max(d.Generation, es.Generation)
		if es.Coverage != nil {
			d.Coverage = es.Coverage
		}
	}
	// Fold pre-restart baselines in: each is a constant offset on its
	// row.
	for _, b := range baselines {
		d := row(b.Tenant, b.Device)
		d.Rounds += b.Rounds
		d.Blocked += b.Blocked
		d.Warned += b.Warned
		d.Anomalies += b.Blocked + b.Warned
		d.Swaps += b.Swaps
		d.Generation = max(d.Generation, b.Generation)
	}

	if journal != nil {
		st := journal()
		out.Journal = &st
	}

	out.Devices = make([]DeviceHealth, 0, len(rows))
	for _, d := range rows {
		out.Devices = append(out.Devices, *d)
	}
	sort.Slice(out.Devices, func(i, j int) bool {
		if out.Devices[i].Tenant != out.Devices[j].Tenant {
			return out.Devices[i].Tenant < out.Devices[j].Tenant
		}
		return out.Devices[i].Device < out.Devices[j].Device
	})
	return out
}
