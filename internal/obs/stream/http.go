package stream

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"sedspec/internal/obs"
)

// ServerOptions wires an introspection server's data sources. Zero
// fields select the process-wide defaults.
type ServerOptions struct {
	Registry *obs.Registry
	Hub      *Hub
	Health   *Health
	// History is the disk journal /journal reads history from; nil
	// reads the hub's recent ring.
	History History
}

// History is a durable event log: the daemon's disk journal.
type History interface {
	// Query streams the events matching q oldest-first into fn until fn
	// returns false. Every event the hub published before the call and
	// the log did not shed is included.
	Query(q Query, fn func(ev *Event) bool) error
	// Stats is what /journal?stats=1 answers.
	Stats() JournalStats
}

// JournalStats is a point-in-time summary of a disk journal.
type JournalStats struct {
	Dir          string  `json:"dir"`
	Segments     int     `json:"segments"`
	Bytes        int64   `json:"bytes"`
	Records      uint64  `json:"records"`
	FirstSeq     uint64  `json:"first_seq,omitempty"`
	LastSeq      uint64  `json:"last_seq,omitempty"`
	Appended     uint64  `json:"appended"`
	Dropped      uint64  `json:"dropped"`
	Truncations  uint64  `json:"truncations"`
	Rotations    uint64  `json:"rotations"`
	Pruned       uint64  `json:"pruned_segments"`
	Fsyncs       uint64  `json:"fsyncs"`
	FsyncP99Us   float64 `json:"fsync_p99_us"`
	EncodeErrors uint64  `json:"encode_errors,omitempty"`
	WriteErrors  uint64  `json:"write_errors,omitempty"`
}

// Server is the unified introspection surface: liveness, fleet
// snapshots, Prometheus metrics, the event history and live tail, and
// pprof — all on the server's own *http.ServeMux, so any number of
// servers (tests, two CLIs sharing a process) coexist without the
// default mux's duplicate-registration panic.
type Server struct {
	mux     *http.ServeMux
	ln      net.Listener
	srv     *http.Server
	reg     *obs.Registry
	hub     *Hub
	health  *Health
	history History
}

// readHeaderTimeout bounds how long a client may take to send its
// request headers, so a stalled or slow-drip connection cannot hold a
// server goroutine forever.
const readHeaderTimeout = 10 * time.Second

// NewServer builds the introspection handler without binding a
// listener (useful under httptest).
func NewServer(opts ServerOptions) *Server {
	if opts.Registry == nil {
		opts.Registry = obs.Default()
	}
	if opts.Hub == nil {
		opts.Hub = Default()
	}
	if opts.Health == nil {
		opts.Health = NewHealth(opts.Registry, opts.Hub)
	}
	s := &Server{
		mux:     http.NewServeMux(),
		reg:     opts.Registry,
		hub:     opts.Hub,
		health:  opts.Health,
		history: opts.History,
	}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/fleet", s.handleFleet)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/journal", s.handleJournal)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Handle mounts an additional handler on the server's mux, so a
// control plane (the fleet daemon's tenant/session API) rides the same
// listener as the introspection surface. Patterns follow
// http.ServeMux semantics, including method and wildcard patterns.
// Mount before Start: the mux is not safe for concurrent registration
// once requests flow.
func (s *Server) Handle(pattern string, h http.Handler) {
	s.mux.Handle(pattern, h)
}

// HandleFunc is Handle for plain functions.
func (s *Server) HandleFunc(pattern string, h func(http.ResponseWriter, *http.Request)) {
	s.mux.HandleFunc(pattern, h)
}

// Start binds addr (port 0 allowed) and serves the mux in the
// background. Use after NewServer + Handle when extra routes must be
// mounted before the listener opens; Serve composes the two for the
// introspection-only callers.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	// Only the header read is bounded: /journal?follow=1 (the tail
	// `sedspec logs -follow` reads) holds responses open, so a read or
	// write timeout would cut it.
	s.srv = &http.Server{Handler: s.mux, ReadHeaderTimeout: readHeaderTimeout}
	go func() { _ = s.srv.Serve(ln) }()
	return nil
}

// Serve binds addr (port 0 allowed) and serves the introspection
// surface in the background, returning the bound server.
func Serve(addr string, opts ServerOptions) (*Server, error) {
	s := NewServer(opts)
	if err := s.Start(addr); err != nil {
		return nil, err
	}
	return s, nil
}

// Addr returns the bound listen address ("" when built by NewServer).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener. In-flight follow streams end when their
// connections drop.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// handleHealthz answers liveness probes: 200 with a small JSON body.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	snap := s.health.Snapshot()
	writeJSON(w, http.StatusOK, struct {
		Status    string  `json:"status"`
		UptimeSec float64 `json:"uptime_sec"`
		Devices   int     `json:"devices"`
		Sessions  int     `json:"sessions"`
	}{"ok", snap.UptimeSec, len(snap.Devices), snap.Sessions})
}

// handleFleet serves the full fleet snapshot; ?tenant=NAME narrows the
// device rows (and the session count) to one control-plane tenant's
// engines. Tenantless rows (single-tenant CLI runs) are excluded from a
// filtered view.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	snap := s.health.Snapshot()
	if tenant := r.URL.Query().Get("tenant"); tenant != "" {
		filtered := make([]DeviceHealth, 0, len(snap.Devices))
		sessions := 0
		for _, d := range snap.Devices {
			if d.Tenant == tenant {
				filtered = append(filtered, d)
				sessions += d.Sessions
			}
		}
		snap.Devices = filtered
		snap.Sessions = sessions
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = WriteExposition(w, s.health.Snapshot(), s.reg.Snapshot())
}

// SeqHeader carries, on every /journal response, the hub's newest
// sequence number when the read began: the point where history ends and
// a follow stream's live tail begins. A reconnecting client whose cursor
// is past it is talking to a restarted process.
const SeqHeader = "Sedspec-Seq"

// followBuffer sizes the subscriber ring behind a follow stream; a
// variable only so a test can overwhelm a small one.
var followBuffer = DefaultSubBuffer

// handleJournal is the one event read endpoint. It streams NDJSON,
// oldest first: history from the disk journal where the process keeps
// one, otherwise from the hub's recent ring, with the same filters on
// both.
//
// Query parameters:
//
//	since, until  time bound: RFC3339, unix nanoseconds, or a relative
//	              duration ("15m" = that long ago)
//	kinds         comma-separated kind list (default all)
//	tenant        exact tenant match
//	device        exact device match
//	min_seq       minimum hub sequence number
//	limit         the oldest N matches; a follow stream ends after N
//	              events (default 1024 without follow, unlimited with
//	              it; 0 = unlimited)
//	follow        "1": after the history, stream the live tail until
//	              the client disconnects (not with until)
//	stats         "1" answers the disk journal's Stats instead (400
//	              where the process keeps none)
//
// With follow=1 the server splices: it subscribes first, notes the
// hub's newest seq S, sends the history up to S, then the tail past
// what it sent, so every event arrives exactly once. A tail that falls
// behind sends a kind="drop" record carrying the number of events shed
// since the previous record. A history read error ends the stream with
// a {"error": "..."} trailer record.
func (s *Server) handleJournal(w http.ResponseWriter, r *http.Request) {
	v := r.URL.Query()
	if v.Get("stats") == "1" {
		if s.history == nil {
			http.Error(w, "stats: this process keeps no disk journal", http.StatusBadRequest)
			return
		}
		writeJSON(w, http.StatusOK, s.history.Stats())
		return
	}
	q, follow, err := parseQuery(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var sub *Sub
	if follow {
		sub = s.hub.Subscribe(WithKinds(q.Kinds), WithBuffer(followBuffer))
		defer sub.Close()
	}
	newest := s.hub.Seq()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set(SeqHeader, strconv.FormatUint(newest, 10))
	enc := json.NewEncoder(w)

	var sent int
	var last uint64
	var werr error
	send := func(ev *Event) bool {
		if werr = enc.Encode(ev); werr != nil {
			return false
		}
		sent++
		last = max(last, ev.Seq)
		return q.Limit == 0 || sent < q.Limit
	}
	more := true
	history := func(ev *Event) bool {
		if follow && ev.Seq > newest {
			return true // published after the subscribe: the tail's
		}
		more = send(ev)
		return more
	}
	if s.history != nil {
		err = s.history.Query(q, history)
	} else {
		for _, ev := range s.hub.Recent(MaskAll, 0) {
			if q.Matches(&ev) && !history(&ev) {
				break
			}
		}
	}
	if err != nil && werr == nil {
		// Headers are gone; a clean NDJSON stream ends at EOF, so a read
		// error travels as a trailer record the client can detect.
		_ = enc.Encode(map[string]string{"error": err.Error()})
		return
	}
	if !follow || !more {
		return
	}

	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	done := r.Context().Done()
	var reported uint64
	for {
		ev, ok := sub.Recv(done)
		if !ok {
			return
		}
		if d := sub.Dropped(); d > reported {
			notice := Event{TimeNs: ev.TimeNs, Kind: KindDrop, Session: -1, Dropped: d - reported}
			reported = d
			if enc.Encode(&notice) != nil {
				return
			}
		}
		if ev.Seq > last && q.Matches(&ev) && !send(&ev) {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}
