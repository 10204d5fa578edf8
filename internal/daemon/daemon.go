// Package daemon is the resident fleet-enforcement service: one
// long-running process hosting many named tenants, each with its own
// spec-store namespace and a set of live enforcement sessions.
//
// The batch CLIs build a machine, run, and exit; the daemon instead
// keeps the paper's enforcement model resident. A tenant installs a
// spec once (learned or loaded from its namespace store), the daemon
// seals it into a shared engine (checker.Shared), and any number of
// sessions — each a guest machine plus a per-session checker driven by
// its own goroutine — attach and detach against the live engine.
// Enhancement and hot-swap run against running sessions using the
// engine's RCU swap and epoch-grace machinery, so a fleet picks up a
// new spec generation without restarting a single guest.
//
// The control plane is plain HTTP/JSON mounted on the same
// stream.Server mux that serves /fleet, /metrics, and the /journal
// event history and tail, so one listener exposes both the
// introspection surface and the tenant/session API. Every event an
// engine publishes is stamped with the owning tenant's name.
//
// Shutdown and tenant deletion drain: session goroutines are stopped,
// each session's checker is retired (folding its stats, warnings, and
// coverage into the engine's retired banks and flushing one final
// detach event), and engines are unregistered from the health
// aggregator — all under a configurable drain deadline.
package daemon

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sedspec/internal/obs"
	"sedspec/internal/obs/journal"
	"sedspec/internal/obs/stream"
	"sedspec/internal/specstore"
)

// Options configures a Daemon. Zero values select the process-wide
// defaults (hub, registry) and conservative timeouts.
type Options struct {
	// StoreRoot is the directory tenant spec-store namespaces live
	// under (one subdirectory per tenant). Required.
	StoreRoot string
	// DrainTimeout bounds how long Close, DeleteTenant, and session
	// detach wait for workload goroutines to stop (default 10s).
	DrainTimeout time.Duration
	// Hub is the telemetry hub engines publish into (default
	// stream.Default()). Tests pass their own hub for isolation.
	Hub *stream.Hub
	// Registry is the observability registry sessions' flight
	// recorders report into (default obs.Default()).
	Registry *obs.Registry
	// Journal, when its Dir is non-empty, opens a durable event journal
	// there: rare-path events persist across restarts, boot replays the
	// tail into the hub's recent ring and the health baselines, and
	// /journal reads its history from disk.
	Journal journal.Options
}

// Daemon is the resident service: tenants, their engines and sessions,
// and the HTTP surface. All methods are safe for concurrent use.
type Daemon struct {
	opts   Options
	hub    *stream.Hub
	reg    *obs.Registry
	health *stream.Health
	srv    *stream.Server
	jrnl   *journal.Journal

	// nextSession allocates fleet-wide unique session IDs so two
	// tenants' anomaly events never alias on the session column.
	nextSession atomic.Int64

	mu      sync.Mutex
	tenants map[string]*Tenant
	closed  bool

	// cells holds the corpus cell of every device an install named,
	// each with the recipes resolved onto it (see resolveRecipe).
	recipeMu sync.Mutex
	cells    map[string]*corpusCell
}

// New builds a daemon and mounts the control plane on a fresh
// introspection server. Call Serve to
// bind a listener, or Server().ServeHTTP under httptest.
func New(opts Options) (*Daemon, error) {
	if opts.StoreRoot == "" {
		return nil, fmt.Errorf("daemon: Options.StoreRoot is required")
	}
	if opts.DrainTimeout <= 0 {
		opts.DrainTimeout = 10 * time.Second
	}
	if opts.Hub == nil {
		opts.Hub = stream.Default()
	}
	if opts.Registry == nil {
		opts.Registry = obs.Default()
	}
	d := &Daemon{
		opts:    opts,
		hub:     opts.Hub,
		reg:     opts.Registry,
		tenants: make(map[string]*Tenant),
		cells:   make(map[string]*corpusCell),
	}
	d.health = stream.NewHealth(d.reg, d.hub)
	srvOpts := stream.ServerOptions{Registry: d.reg, Hub: d.hub, Health: d.health}

	// The journal opens (replaying and repairing any torn tail) before
	// any subscriber attaches. One pass over it folds the per-tenant
	// health baselines, so /fleet survives the restart, and finds the
	// newest seq, which the hub resumes from; /journal reads history
	// from the journal itself. Only then does the journal begin
	// persisting new traffic.
	if opts.Journal.Dir != "" {
		j, err := journal.Open(opts.Journal)
		if err != nil {
			return nil, fmt.Errorf("daemon: open journal: %w", err)
		}
		rows, lastSeq, err := j.FoldBaselines()
		if err != nil {
			j.Close()
			return nil, fmt.Errorf("daemon: fold journal baselines: %w", err)
		}
		d.hub.ResumeAt(lastSeq)
		d.health.AddBaseline(rows)
		d.health.SetJournal(j.Status)
		j.Attach(d.hub)
		d.jrnl = j
		srvOpts.History = j
	}
	d.srv = stream.NewServer(srvOpts)
	d.registerRoutes()
	return d, nil
}

// Journal returns the daemon's durable journal (nil when persistence
// is disabled).
func (d *Daemon) Journal() *journal.Journal { return d.jrnl }

// Server returns the introspection+control-plane HTTP surface (useful
// under httptest).
func (d *Daemon) Server() *stream.Server { return d.srv }

// Serve binds addr (port 0 allowed) and serves in the background.
func (d *Daemon) Serve(addr string) error { return d.srv.Start(addr) }

// Addr returns the bound listen address ("" before Serve).
func (d *Daemon) Addr() string { return d.srv.Addr() }

// Health returns the fleet aggregator (tests snapshot it directly).
func (d *Daemon) Health() *stream.Health { return d.health }

// CreateTenant provisions a named tenant: its spec-store namespace is
// created (or reopened) under StoreRoot. The name is validated against
// path traversal by the store layer.
func (d *Daemon) CreateTenant(name string) (*Tenant, error) {
	store, err := specstore.OpenNamespace(d.opts.StoreRoot, name)
	if err != nil {
		return nil, err
	}
	store.SetStream(d.hub)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, fmt.Errorf("daemon: closed")
	}
	if _, ok := d.tenants[name]; ok {
		return nil, fmt.Errorf("daemon: tenant %q already exists", name)
	}
	t := &Tenant{
		name:     name,
		store:    store,
		d:        d,
		engines:  make(map[string]*engine),
		sessions: make(map[int]*Session),
	}
	d.tenants[name] = t
	return t, nil
}

// Tenant returns the named live tenant.
func (d *Daemon) Tenant(name string) (*Tenant, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.tenants[name]
	return t, ok
}

// TenantNames lists live tenants in name order.
func (d *Daemon) TenantNames() []string {
	d.mu.Lock()
	names := make([]string, 0, len(d.tenants))
	for n := range d.tenants {
		names = append(names, n)
	}
	d.mu.Unlock()
	sort.Strings(names)
	return names
}

// ErrNoTenant marks lookups of tenants the daemon does not host.
var ErrNoTenant = errors.New("daemon: no such tenant")

// DeleteTenant drains the tenant's sessions (within DrainTimeout),
// unregisters its engines, and removes it. The on-disk spec-store
// namespace is kept — recreating the tenant reopens its history.
func (d *Daemon) DeleteTenant(name string) error {
	d.mu.Lock()
	t, ok := d.tenants[name]
	if ok {
		delete(d.tenants, name)
	}
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoTenant, name)
	}
	return t.drain(d.opts.DrainTimeout)
}

// SessionCount reports live sessions across all tenants.
func (d *Daemon) SessionCount() int {
	d.mu.Lock()
	ts := make([]*Tenant, 0, len(d.tenants))
	for _, t := range d.tenants {
		ts = append(ts, t)
	}
	d.mu.Unlock()
	n := 0
	for _, t := range ts {
		t.mu.Lock()
		n += len(t.sessions)
		t.mu.Unlock()
	}
	return n
}

// Close drains every tenant, closes the journal, and shuts the HTTP
// server down. It returns an error when any session failed to
// stop within DrainTimeout (the daemon exits non-zero on that path so
// a supervisor can tell a clean drain from a wedged one). Idempotent.
func (d *Daemon) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	ts := make([]*Tenant, 0, len(d.tenants))
	for _, t := range d.tenants {
		ts = append(ts, t)
	}
	d.tenants = make(map[string]*Tenant)
	d.mu.Unlock()

	var errs []string
	for _, t := range ts {
		if err := t.drain(d.opts.DrainTimeout); err != nil {
			errs = append(errs, err.Error())
		}
	}
	// The journal closes after the tenant drain: every final detach
	// event is already in the hub, and journal.Close drains its subscription backlog to disk
	// before fsyncing and returning.
	if d.jrnl != nil {
		if err := d.jrnl.Close(); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if err := d.srv.Close(); err != nil {
		errs = append(errs, err.Error())
	}
	if len(errs) > 0 {
		return fmt.Errorf("daemon: close: %s", strings.Join(errs, "; "))
	}
	return nil
}
