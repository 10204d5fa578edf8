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
	// FollowBuffer sizes the per-tail subscriber ring behind
	// /anomalies?follow=1 (default DefaultSubBuffer).
	FollowBuffer int
}

// Server is the unified introspection surface: liveness, fleet
// snapshots, Prometheus metrics, the live anomaly tail, and pprof — all
// on the server's own *http.ServeMux, so any number of servers (tests,
// two CLIs sharing a process) coexist without the default mux's
// duplicate-registration panic.
type Server struct {
	mux    *http.ServeMux
	ln     net.Listener
	srv    *http.Server
	reg    *obs.Registry
	hub    *Hub
	health *Health
	opts   ServerOptions
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
	if opts.FollowBuffer <= 0 {
		opts.FollowBuffer = DefaultSubBuffer
	}
	s := &Server{
		mux:    http.NewServeMux(),
		reg:    opts.Registry,
		hub:    opts.Hub,
		health: opts.Health,
		opts:   opts,
	}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/fleet", s.handleFleet)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/anomalies", s.handleAnomalies)
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
	// Only the header read is bounded: /anomalies?follow=1 (the tail
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

// handleAnomalies serves the event stream. Without follow=1 it returns
// a bounded NDJSON read of the hub's retained recent events (limit=N,
// default 64). With follow=1 it subscribes and streams live events as
// NDJSON until the client disconnects. A lagging tail's gaps surface as
// synthesized kind="drop" records carrying the exact number of events
// shed since the previous record.
func (s *Server) handleAnomalies(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	mask, err := ParseKinds(q.Get("kinds"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if q.Get("kinds") == "" {
		// The page is the anomaly tail by default; health records (only a
		// journal from an older build restores any) are opt-in.
		mask &^= MaskOf(KindHealth)
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	if q.Get("follow") != "1" {
		limit := 64
		if v := q.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				http.Error(w, "bad limit", http.StatusBadRequest)
				return
			}
			limit = n
		}
		for _, ev := range s.hub.Recent(mask, limit) {
			if enc.Encode(&ev) != nil {
				return
			}
		}
		return
	}

	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}

	sub := s.hub.Subscribe(WithKinds(mask), WithBuffer(s.opts.FollowBuffer))
	defer sub.Close()
	done := r.Context().Done()
	var reported uint64
	for {
		ev, ok := sub.Recv(done)
		if !ok {
			return
		}
		if d := sub.Dropped(); d > reported {
			notice := Event{
				TimeNs:  ev.TimeNs,
				Kind:    KindDrop,
				Session: -1,
				Dropped: d - reported,
			}
			reported = d
			if enc.Encode(&notice) != nil {
				return
			}
		}
		if enc.Encode(&ev) != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}
