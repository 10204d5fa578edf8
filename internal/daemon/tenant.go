package daemon

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sedspec"
	"sedspec/internal/checker"
	"sedspec/internal/specstore"
)

// Tenant is one control-plane namespace: a spec store, at most one
// enforcement engine per device, and the live sessions attached to
// those engines.
type Tenant struct {
	name  string
	store *specstore.Store
	d     *Daemon

	mu       sync.Mutex
	engines  map[string]*engine
	sessions map[int]*Session
	draining bool
}

// engine is one device's enforcement engine inside a tenant: the
// shared sealed spec plus the recipe that produced it, kept so
// enhancement, rollback and session attachment reuse its program and
// build machines from it.
type engine struct {
	mode   checker.Mode
	budget int

	shared *checker.Shared
	// rc is replaced (under swapMu) by a reinstall from another corpus;
	// readers that need no swap ordering load it without the lock.
	rc atomic.Pointer[recipe]

	removeHealth func()

	// swapMu serializes enhance/swap so meta (the store version the
	// engine currently enforces) tracks the published generation.
	swapMu sync.Mutex
	meta   sedspec.SpecVersion
}

// Name returns the tenant's name.
func (t *Tenant) Name() string { return t.name }

// Store returns the tenant's spec-store namespace.
func (t *Tenant) Store() *specstore.Store { return t.store }

// InstallRequest asks for a spec to be learned (or loaded from the
// tenant's store cache) and installed as the device's engine.
type InstallRequest struct {
	// Device names the emulated device (fdc, ehci, pcnet, sdhci, scsi).
	// May be left empty for cve corpora (inferred from the PoC).
	Device string `json:"device"`
	// Corpus selects the training input: "benign" (default, the
	// device's light benign corpus) or "cve:<CVE-ID>" (the PoC's, the
	// same corpus tagged for the PoC the batch CLI replays, so daemon
	// verdicts match it exactly).
	Corpus string `json:"corpus,omitempty"`
	// Mode is "protection" (default) or "enhancement".
	Mode string `json:"mode,omitempty"`
	// Budget bounds simulated steps per checked round (0 = engine
	// default).
	Budget int `json:"budget,omitempty"`
}

// EngineInfo describes one installed engine.
type EngineInfo struct {
	Device     string `json:"device"`
	Corpus     string `json:"corpus"`
	Mode       string `json:"mode"`
	Budget     int    `json:"budget,omitempty"`
	Generation uint64 `json:"generation"`
	Swaps      uint64 `json:"swaps"`
	Sessions   int    `json:"sessions"`
	CacheHit   bool   `json:"cache_hit,omitempty"`
	Parent     uint64 `json:"parent,omitempty"`
	CreatedBy  string `json:"created_by,omitempty"`
}

func (e *engine) info() EngineInfo {
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	return e.infoLocked()
}

// infoLocked is info for callers already holding swapMu.
func (e *engine) infoLocked() EngineInfo {
	meta, rc := e.meta, e.rc.Load()
	return EngineInfo{
		Device:     rc.target.Name,
		Corpus:     rc.corpus,
		Mode:       e.mode.String(),
		Budget:     e.budget,
		Generation: e.shared.Generation(),
		Swaps:      e.shared.SwapCount(),
		Sessions:   e.shared.Sessions(),
		Parent:     meta.Parent,
		CreatedBy:  meta.CreatedBy,
	}
}

// Install loads the requested spec from the tenant's store (CacheHit),
// or publishes there the bytes the daemon learned once for the device,
// and installs it: a fresh engine when the device has none, or a
// hot-swap onto the running engine — live sessions pick the new
// generation up at their next round, no guest restarts.
func (t *Tenant) Install(req InstallRequest) (EngineInfo, error) {
	corpus := req.Corpus
	if corpus == "" {
		corpus = "benign"
	}
	rc, err := t.d.resolveRecipe(req.Device, corpus)
	if err != nil {
		return EngineInfo{}, err
	}
	device := rc.target.Name
	mode := checker.ModeProtection
	switch req.Mode {
	case "", "protection":
	case "enhancement":
		mode = checker.ModeEnhancement
	default:
		return EngineInfo{}, fmt.Errorf("daemon: unknown mode %q", req.Mode)
	}

	// Load outside the tenant lock: the daemon's first miss for a device
	// trains its corpus, and sibling installs or attaches must not stall
	// on it. A hit looks the recipe's key up, checks the stored blob's
	// hash, and takes the device's compiled copy of it.
	cv, meta, hit, err := rc.load(t.store, rc.want, rc.encoded)
	if err != nil {
		return EngineInfo{}, fmt.Errorf("daemon: learn %s: %w", device, err)
	}

	t.mu.Lock()
	if t.draining {
		t.mu.Unlock()
		return EngineInfo{}, fmt.Errorf("daemon: tenant %q is draining", t.name)
	}
	if eng := t.engines[device]; eng != nil {
		t.mu.Unlock()
		// Reinstall onto a live engine: the mode and budget are sealed
		// into every session at engine construction, so only the spec
		// itself can change under running sessions.
		if req.Mode != "" && req.Mode != eng.mode.String() {
			return EngineInfo{}, fmt.Errorf("daemon: engine %s runs %s mode; detach and reinstall to change it", device, eng.mode)
		}
		eng.swapMu.Lock()
		defer eng.swapMu.Unlock()
		if err := eng.shared.Publish(cv); err != nil {
			return EngineInfo{}, err
		}
		eng.meta = meta
		eng.rc.Store(rc)
		info := eng.infoLocked()
		info.CacheHit = hit
		return info, nil
	}
	copts := []checker.Option{
		checker.WithMode(mode),
		checker.WithStream(t.d.hub),
		checker.WithObs(t.d.reg),
		checker.WithTenant(t.name),
	}
	if req.Budget > 0 {
		copts = append(copts, checker.WithBudget(req.Budget))
	}
	eng := &engine{
		mode:   mode,
		budget: req.Budget,
		shared: checker.NewSharedCompiled(cv, copts...),
		meta:   meta,
	}
	eng.rc.Store(rc)
	eng.removeHealth = t.d.health.AddEngine(eng.shared.EngineStatus)
	t.engines[device] = eng
	t.mu.Unlock()
	info := eng.info()
	info.CacheHit = hit
	return info, nil
}

// Engines lists the tenant's installed engines in device order.
func (t *Tenant) Engines() []EngineInfo {
	t.mu.Lock()
	engs := make([]*engine, 0, len(t.engines))
	for _, e := range t.engines {
		engs = append(engs, e)
	}
	t.mu.Unlock()
	out := make([]EngineInfo, 0, len(engs))
	for _, e := range engs {
		out = append(out, e.info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Device < out[j].Device })
	return out
}

// Versions lists the tenant store's published versions for a device.
func (t *Tenant) Versions(device string) []specstore.VersionMeta {
	return t.store.Versions(device)
}

func (t *Tenant) engineFor(device string) (*engine, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.draining {
		return nil, fmt.Errorf("daemon: tenant %q is draining", t.name)
	}
	eng := t.engines[device]
	if eng == nil {
		return nil, fmt.Errorf("daemon: tenant %q has no spec installed for device %q", t.name, device)
	}
	return eng, nil
}

// SwapRequest triggers a spec replacement on a running engine: either
// the enhancement pipeline (replay the engine's audited warnings into
// a child generation) or a rollout/rollback to a specific stored
// generation.
type SwapRequest struct {
	Device string `json:"device"`
	// Enhance runs the enhancement pipeline over the engine's audit
	// trail. Mutually exclusive with Generation.
	Enhance bool `json:"enhance,omitempty"`
	// Generation selects a stored generation to swap to.
	Generation uint64 `json:"generation,omitempty"`
}

// SwapResult reports the applied swap.
type SwapResult struct {
	Device   string `json:"device"`
	FromGen  uint64 `json:"from_generation"`
	ToGen    uint64 `json:"to_generation"`
	Warnings int    `json:"warnings_replayed,omitempty"`
	StoreGen uint64 `json:"store_generation"`
	// CacheHit reports an enhance whose child version (same parent
	// corpus, same audit trail) was already in the store: it was loaded,
	// not relearned.
	CacheHit bool `json:"cache_hit,omitempty"`
}

// Swap applies a SwapRequest against the tenant's running engine. The
// engine's RCU swap grace-waits mid-round sessions, so on return every
// session round checks the new generation. An enhance and a rollback
// both publish through the recipe's compiled versions: a child or
// generation already in the store and in a memo slot is a lookup, a
// hash check and a pointer swap.
func (t *Tenant) Swap(req SwapRequest) (SwapResult, error) {
	eng, err := t.engineFor(req.Device)
	if err != nil {
		return SwapResult{}, err
	}
	eng.swapMu.Lock()
	defer eng.swapMu.Unlock()
	res := SwapResult{Device: req.Device, FromGen: eng.shared.Generation()}
	rc := eng.rc.Load()

	var cv *checker.Compiled
	var meta specstore.VersionMeta
	var audit []checker.AuditRecord
	switch {
	case req.Enhance:
		audit = eng.shared.Audit()
		if len(audit) == 0 {
			return SwapResult{}, fmt.Errorf("daemon: engine %s has no audited warnings to enhance from (run sessions in enhancement mode first)", req.Device)
		}
		want := sedspec.EnhancedVersion(rc.want.ProgramHash, eng.meta, audit)
		cv, meta, res.CacheHit, err = rc.load(t.store, want, func() ([]byte, error) {
			chain, err := sedspec.ChainAudit(t.store, eng.meta)
			if err != nil {
				return nil, err
			}
			return rc.enhanced(append(chain, audit...))
		})
		if err != nil {
			return SwapResult{}, fmt.Errorf("daemon: enhance %s: %w", req.Device, err)
		}
		res.Warnings = len(audit)
	case req.Generation != 0:
		found := false
		for _, v := range t.store.Versions(req.Device) {
			if v.Generation == req.Generation {
				meta, found = v, true
				break
			}
		}
		if !found {
			return SwapResult{}, fmt.Errorf("daemon: no stored generation %d for device %s", req.Generation, req.Device)
		}
		if cv, err = rc.compiled(t.store, meta); err != nil {
			return SwapResult{}, err
		}
	default:
		return SwapResult{}, fmt.Errorf("daemon: swap needs enhance=true or a generation")
	}
	if err := eng.shared.Publish(cv); err != nil {
		return SwapResult{}, err
	}
	if req.Enhance {
		// The audited warnings are folded into the new generation;
		// clearing them makes the next enhance incremental. Warnings
		// raised since the Audit call were not folded in and stay for
		// the next enhance.
		eng.shared.ClearAudited(audit)
	}
	eng.meta = meta
	res.ToGen, res.StoreGen = eng.shared.Generation(), meta.Generation
	return res, nil
}

// drain stops every session goroutine, retires each session's checker
// (folding stats/coverage and flushing one final detach event), and
// unregisters the tenant's engines from the health aggregator. One
// deadline covers the whole tenant.
func (t *Tenant) drain(timeout time.Duration) error {
	t.mu.Lock()
	t.draining = true
	sessions := make([]*Session, 0, len(t.sessions))
	for _, s := range t.sessions {
		sessions = append(sessions, s)
	}
	t.sessions = make(map[int]*Session)
	engines := make([]*engine, 0, len(t.engines))
	for _, e := range t.engines {
		engines = append(engines, e)
	}
	t.engines = make(map[string]*engine)
	t.mu.Unlock()

	// Signal everything first so sessions stop concurrently, then wait
	// under one shared deadline.
	for _, s := range sessions {
		s.signalStop()
	}
	deadline := time.Now().Add(timeout)
	var stuck []string
	for _, s := range sessions {
		if !s.waitDone(time.Until(deadline)) {
			stuck = append(stuck, fmt.Sprintf("%d", s.ID))
			continue
		}
		s.retire()
	}
	for _, e := range engines {
		e.removeHealth()
	}
	if len(stuck) > 0 {
		return fmt.Errorf("daemon: tenant %q: sessions not drained within %s: %s",
			t.name, timeout, strings.Join(stuck, ", "))
	}
	return nil
}
