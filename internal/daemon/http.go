package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"sedspec/internal/specstore"
)

// apiError is the control plane's uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, apiError{Error: err.Error()})
}

// maxBodyBytes caps a control-plane request body. The largest legitimate
// body, an install or swap request naming a device and its corpus, is a
// few hundred bytes.
const maxBodyBytes = 1 << 20

// decodeBody decodes a JSON request body into v, rejecting unknown
// fields so typos in scripts fail loudly instead of silently running a
// default workload, and rejecting trailing data after the one value. It
// writes the error response itself — 413 for a body over maxBodyBytes,
// 400 for any other bad body — and reports whether v was decoded.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		_, terr := dec.Token()
		switch {
		case terr == io.EOF:
			return true
		case errors.As(terr, new(*http.MaxBytesError)):
			err = terr
		default:
			err = errors.New("trailing data after the JSON value")
		}
	}
	status := http.StatusBadRequest
	if errors.As(err, new(*http.MaxBytesError)) {
		status = http.StatusRequestEntityTooLarge
	}
	writeErr(w, status, fmt.Errorf("daemon: bad request body: %w", err))
	return false
}

// tenantOf resolves the {tenant} path segment to a live tenant.
func (d *Daemon) tenantOf(w http.ResponseWriter, r *http.Request) (*Tenant, bool) {
	name := r.PathValue("tenant")
	t, ok := d.Tenant(name)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("daemon: no tenant %q", name))
		return nil, false
	}
	return t, true
}

// registerRoutes mounts the control plane on the introspection mux.
// Method+wildcard patterns keep the surface self-describing; the
// introspection endpoints (/fleet, /metrics, and /journal, the one
// event read endpoint) ride the same listener.
func (d *Daemon) registerRoutes() {
	d.srv.HandleFunc("POST /tenants", d.handleTenantCreate)
	d.srv.HandleFunc("GET /tenants", d.handleTenantList)
	d.srv.HandleFunc("GET /tenants/{tenant}", d.handleTenantGet)
	d.srv.HandleFunc("DELETE /tenants/{tenant}", d.handleTenantDelete)
	d.srv.HandleFunc("POST /tenants/{tenant}/specs", d.handleSpecInstall)
	d.srv.HandleFunc("GET /tenants/{tenant}/specs", d.handleSpecList)
	d.srv.HandleFunc("POST /tenants/{tenant}/sessions", d.handleSessionAttach)
	d.srv.HandleFunc("GET /tenants/{tenant}/sessions", d.handleSessionList)
	d.srv.HandleFunc("DELETE /tenants/{tenant}/sessions/{id}", d.handleSessionDetach)
	d.srv.HandleFunc("POST /tenants/{tenant}/swap", d.handleSwap)
	d.srv.HandleFunc("GET /status", d.handleStatus)
}

// TenantInfo is one tenant's control-plane view.
type TenantInfo struct {
	Name     string          `json:"name"`
	StoreDir string          `json:"store_dir"`
	Engines  []EngineInfo    `json:"engines"`
	Sessions []SessionStatus `json:"sessions"`
}

func (t *Tenant) info() TenantInfo {
	return TenantInfo{
		Name:     t.name,
		StoreDir: t.store.Dir(),
		Engines:  t.Engines(),
		Sessions: t.Sessions(),
	}
}

func (d *Daemon) handleTenantCreate(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name string `json:"name"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	t, err := d.CreateTenant(req.Name)
	if err != nil {
		status := http.StatusBadRequest
		if _, exists := d.Tenant(req.Name); exists {
			status = http.StatusConflict
		}
		writeErr(w, status, err)
		return
	}
	writeJSON(w, http.StatusCreated, t.info())
}

func (d *Daemon) handleTenantList(w http.ResponseWriter, _ *http.Request) {
	names := d.TenantNames()
	out := make([]TenantInfo, 0, len(names))
	for _, n := range names {
		if t, ok := d.Tenant(n); ok {
			out = append(out, t.info())
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Tenants []TenantInfo `json:"tenants"`
	}{out})
}

func (d *Daemon) handleTenantGet(w http.ResponseWriter, r *http.Request) {
	t, ok := d.tenantOf(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, t.info())
}

func (d *Daemon) handleTenantDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	if err := d.DeleteTenant(name); err != nil {
		// Unknown tenant is the client's mistake; a drain timeout means
		// the tenant was removed but sessions are stuck — the control
		// plane did its best, report the partial failure.
		status := http.StatusInternalServerError
		if errors.Is(err, ErrNoTenant) {
			status = http.StatusNotFound
		}
		writeErr(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Deleted string `json:"deleted"`
	}{name})
}

func (d *Daemon) handleSpecInstall(w http.ResponseWriter, r *http.Request) {
	t, ok := d.tenantOf(w, r)
	if !ok {
		return
	}
	var req InstallRequest
	if !decodeBody(w, r, &req) {
		return
	}
	info, err := t.Install(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (d *Daemon) handleSpecList(w http.ResponseWriter, r *http.Request) {
	t, ok := d.tenantOf(w, r)
	if !ok {
		return
	}
	device := r.URL.Query().Get("device")
	var versions []specstore.VersionMeta
	if device != "" {
		versions = t.Versions(device)
	} else {
		for _, e := range t.Engines() {
			versions = append(versions, t.Versions(e.Device)...)
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Engines  []EngineInfo            `json:"engines"`
		Versions []specstore.VersionMeta `json:"versions"`
	}{t.Engines(), versions})
}

func (d *Daemon) handleSessionAttach(w http.ResponseWriter, r *http.Request) {
	t, ok := d.tenantOf(w, r)
	if !ok {
		return
	}
	var req AttachRequest
	if !decodeBody(w, r, &req) {
		return
	}
	sessions, err := t.Attach(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	out := make([]SessionStatus, 0, len(sessions))
	for _, s := range sessions {
		out = append(out, s.Status())
	}
	writeJSON(w, http.StatusCreated, struct {
		Sessions []SessionStatus `json:"sessions"`
	}{out})
}

func (d *Daemon) handleSessionList(w http.ResponseWriter, r *http.Request) {
	t, ok := d.tenantOf(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Sessions []SessionStatus `json:"sessions"`
	}{t.Sessions()})
}

func (d *Daemon) handleSessionDetach(w http.ResponseWriter, r *http.Request) {
	t, ok := d.tenantOf(w, r)
	if !ok {
		return
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("daemon: bad session id %q", r.PathValue("id")))
		return
	}
	st, err := t.Detach(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (d *Daemon) handleSwap(w http.ResponseWriter, r *http.Request) {
	t, ok := d.tenantOf(w, r)
	if !ok {
		return
	}
	var req SwapRequest
	if !decodeBody(w, r, &req) {
		return
	}
	res, err := t.Swap(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleStatus is the daemon-wide rollup: tenants, engines, sessions.
func (d *Daemon) handleStatus(w http.ResponseWriter, _ *http.Request) {
	names := d.TenantNames()
	tenants := make([]TenantInfo, 0, len(names))
	for _, n := range names {
		if t, ok := d.Tenant(n); ok {
			tenants = append(tenants, t.info())
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Tenants  []TenantInfo `json:"tenants"`
		Sessions int          `json:"sessions"`
	}{tenants, d.SessionCount()})
}
