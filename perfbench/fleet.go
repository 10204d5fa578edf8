package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"

	"sedspec/internal/core"
	"sedspec/internal/cvesim"
	"sedspec/internal/daemon"
	"sedspec/internal/obs"
	"sedspec/internal/obs/journal"
	"sedspec/internal/obs/stream"
	"sedspec/internal/simclock"
	"sedspec/internal/specstore"
)

// ctlKinds are the control requests of the script, by route.
var ctlKinds = []string{"install", "attach", "detach", "enhance", "rollback"}

const (
	// mixedOps bounds the enhancement-mode session of each cycle; the
	// daemon's mixed workload issues one rare command at op 13.
	mixedOps = 30
	// verdictDeadline bounds how long a cycle waits for a session.
	verdictDeadline = 5 * time.Second
	// pollInterval spaces status polls, leaving the CPU to the session.
	pollInterval = 100 * time.Microsecond
	pocTenant    = "poc"
	enhTenant    = "enh"
)

// fleet is the fleet workload: an in-process sedspecd with a store and
// the journal on at its default fsync policy, serving on loopback, and
// one keep-alive client running a closed-loop control script.
type fleet struct {
	dir    string
	d      *daemon.Daemon
	hub    *stream.Hub
	client *http.Client
	base   string
	rng    *simclock.Rand

	pocs     []*cvesim.PoC
	devices  []string
	baseGen  map[string]uint64 // learned store generation per enhancement engine
	mixedEnd map[string]uint64 // rounds a finished mixed session has checked
	cycles   int

	learnCveMs float64

	// per-run records
	reqs      []reqRec
	detects   []sample
	attempted int
	failed    int
	parityBad int
	err       error
	start     time.Time
	warm      time.Duration
	spans     spanWriter
}

type reqRec struct {
	route string
	sample
}

func newFleet(e *env, n int) (*fleet, error) {
	f := &fleet{
		dir:      filepath.Join(e.scratch, fmt.Sprintf("fleet-%d", n)),
		hub:      stream.NewHub(),
		rng:      simclock.NewRand(mix(e.seed, 0xf1ee7, 0)),
		pocs:     cvesim.All(),
		baseGen:  map[string]uint64{},
		mixedEnd: map[string]uint64{},
	}
	for _, r := range recipes() {
		f.devices = append(f.devices, r.name)
	}
	d, err := daemon.New(daemon.Options{
		StoreRoot:    filepath.Join(f.dir, "store"),
		Hub:          f.hub,
		Registry:     obs.NewRegistry(),
		DrainTimeout: 5 * time.Second,
		Journal:      journal.Options{Dir: filepath.Join(f.dir, "journal")},
	})
	if err != nil {
		return nil, err
	}
	f.d = d
	if err := d.Serve("127.0.0.1:0"); err != nil {
		f.close()
		return nil, err
	}
	f.base = "http://" + d.Addr()
	f.client = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
	if err := f.setup(); err != nil {
		f.close()
		return nil, fmt.Errorf("fleet: set-up: %w", err)
	}
	return f, nil
}

// setup creates the tenants, learns every corpus cold, and runs one
// warm-up cycle that also records where each mixed session ends.
func (f *fleet) setup() error {
	for _, t := range []string{pocTenant, enhTenant} {
		if err := f.do("tenant", "POST", "/tenants", map[string]string{"name": t}, nil); err != nil {
			return err
		}
	}
	t0 := time.Now()
	for _, p := range f.pocs {
		if err := f.install(p); err != nil {
			return err
		}
	}
	f.learnCveMs = msSince(t0)
	for _, dev := range f.devices {
		if err := f.do("install", "POST", "/tenants/"+enhTenant+"/specs",
			daemon.InstallRequest{Device: dev, Mode: "enhancement"}, nil); err != nil {
			return err
		}
		var specs struct {
			Versions []specstore.VersionMeta `json:"versions"`
		}
		if err := f.do("status", "GET", "/tenants/"+enhTenant+"/specs?device="+dev, nil, &specs); err != nil {
			return err
		}
		for _, v := range specs.Versions {
			if v.CreatedBy == "learn" {
				f.baseGen[dev] = v.Generation
			}
		}
		if f.baseGen[dev] == 0 {
			return fmt.Errorf("no learned generation stored for %s", dev)
		}
		if err := f.mixed(dev); err != nil {
			return err
		}
	}
	for _, p := range f.pocs {
		if err := f.poc(p); err != nil {
			return err
		}
	}
	if f.err != nil {
		return f.err
	}
	if f.parityBad != 0 {
		return fmt.Errorf("%d verdicts differ from Table III", f.parityBad)
	}
	return nil
}

func (f *fleet) close() {
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	if f.d != nil {
		f.d.Close()
	}
	os.RemoveAll(f.dir)
}

// do issues one control-plane request on the keep-alive connection and
// records its latency under route.
func (f *fleet) do(route, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, f.base+path, rd)
	if err != nil {
		return err
	}
	t0 := time.Now()
	resp, err := f.client.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	t1 := time.Now()
	f.record(route, t0, t1)
	switch {
	case err != nil:
	case resp.StatusCode/100 != 2:
		err = fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	case out != nil:
		err = json.Unmarshal(data, out)
	}
	if err != nil {
		f.fail(err)
	}
	return err
}

func (f *fleet) record(route string, t0, t1 time.Time) {
	if f.start.IsZero() || t0.Sub(f.start) < f.warm {
		return
	}
	f.attempted++
	f.reqs = append(f.reqs, reqRec{route, sample{end: t1.Sub(f.start) - f.warm, dur: t1.Sub(t0), count: 1}})
	f.spans.add("fleet.http."+route, 0, t0.Sub(epoch), t1.Sub(t0), 0)
}

func (f *fleet) fail(err error) {
	f.failed++
	if f.err == nil {
		f.err = fmt.Errorf("fleet: %w", err)
	}
}

func (f *fleet) install(p *cvesim.PoC) error {
	return f.do("install", "POST", "/tenants/"+pocTenant+"/specs",
		daemon.InstallRequest{Device: p.Device, Corpus: "cve:" + p.CVE}, nil)
}

type sessionList struct {
	Sessions []daemon.SessionStatus `json:"sessions"`
}

func (f *fleet) attach(tenant string, req daemon.AttachRequest) (int, error) {
	var out sessionList
	if err := f.do("attach", "POST", "/tenants/"+tenant+"/sessions", req, &out); err != nil {
		return 0, err
	}
	if len(out.Sessions) != 1 {
		return 0, fmt.Errorf("attach returned %d sessions", len(out.Sessions))
	}
	return out.Sessions[0].ID, nil
}

// await polls the tenant's sessions until done reports the session
// finished, or the deadline passes.
func (f *fleet) await(tenant string, id int, done func(daemon.SessionStatus) bool) (daemon.SessionStatus, error) {
	deadline := time.Now().Add(verdictDeadline)
	for time.Now().Before(deadline) {
		var list sessionList
		if err := f.do("status", "GET", "/tenants/"+tenant+"/sessions", nil, &list); err != nil {
			return daemon.SessionStatus{}, err
		}
		for _, s := range list.Sessions {
			if s.ID == id && done(s) {
				return s, nil
			}
		}
		time.Sleep(pollInterval)
	}
	err := fmt.Errorf("session %d of %s missed its %s deadline", id, tenant, verdictDeadline)
	f.fail(err)
	return daemon.SessionStatus{}, err
}

func (f *fleet) detach(tenant string, id int) error {
	return f.do("detach", "DELETE", fmt.Sprintf("/tenants/%s/sessions/%d", tenant, id), nil, nil)
}

// poc installs the PoC's corpus, attaches a poc session, waits for the
// verdict, checks it against Table III, and detaches.
func (f *fleet) poc(p *cvesim.PoC) error {
	if err := f.install(p); err != nil {
		return err
	}
	t0 := time.Now()
	id, err := f.attach(pocTenant, daemon.AttachRequest{Device: p.Device, Workload: "poc", CVE: p.CVE})
	if err != nil {
		return err
	}
	st, err := f.await(pocTenant, id, func(s daemon.SessionStatus) bool { return s.Verdict != nil })
	if err != nil {
		return err
	}
	t1 := time.Now()
	if !f.start.IsZero() && t0.Sub(f.start) >= f.warm {
		f.detects = append(f.detects, sample{end: t1.Sub(f.start) - f.warm, dur: t1.Sub(t0), count: 1})
		f.spans.add("fleet.detect."+p.CVE, 0, t0.Sub(epoch), t1.Sub(t0), 0)
	}
	if err := tableIII(p, st.Verdict); err != nil {
		f.parityBad++
		if f.err == nil {
			f.err = fmt.Errorf("fleet: %w", err)
		}
	}
	return f.detach(pocTenant, id)
}

// tableIII checks a daemon verdict against the paper's detection matrix:
// every case study is detected by one of its listed strategies with the
// exploit's effect kept from the device, except the documented miss
// (no strategies listed), which must go undetected.
func tableIII(p *cvesim.PoC, v *daemon.Verdict) error {
	if len(p.Expected) == 0 {
		if v.Detected {
			return fmt.Errorf("%s: detected by %s, Table III documents a miss", p.CVE, v.Strategy)
		}
		return nil
	}
	if !v.Detected || v.Succeeded {
		return fmt.Errorf("%s: detected=%v succeeded=%v, Table III expects a detection", p.CVE, v.Detected, v.Succeeded)
	}
	for _, s := range p.Expected {
		if s.String() == v.Strategy {
			return nil
		}
	}
	return fmt.Errorf("%s: detected by %s, Table III lists %v", p.CVE, v.Strategy, p.Expected)
}

// mixed attaches a bounded enhancement-mode session, waits for it to
// finish its ops, enhances from its audited warnings, rolls back to the
// learned generation, and detaches. The first call per device records
// the session's final round count.
func (f *fleet) mixed(dev string) error {
	id, err := f.attach(enhTenant, daemon.AttachRequest{Device: dev, Workload: "mixed", Ops: mixedOps, Seed: 1})
	if err != nil {
		return err
	}
	if end, ok := f.mixedEnd[dev]; ok {
		if _, err := f.await(enhTenant, id, func(s daemon.SessionStatus) bool { return s.Rounds >= end }); err != nil {
			return err
		}
	} else {
		end, err := f.settle(id)
		if err != nil {
			return err
		}
		f.mixedEnd[dev] = end
	}
	if err := f.do("enhance", "POST", "/tenants/"+enhTenant+"/swap", daemon.SwapRequest{Device: dev, Enhance: true}, nil); err != nil {
		return err
	}
	if err := f.do("rollback", "POST", "/tenants/"+enhTenant+"/swap", daemon.SwapRequest{Device: dev, Generation: f.baseGen[dev]}, nil); err != nil {
		return err
	}
	return f.detach(enhTenant, id)
}

// settle waits until a session's round count stops moving and reports
// it (set-up only; timed cycles wait for the recorded count).
func (f *fleet) settle(id int) (uint64, error) {
	var last uint64
	stable := 0
	deadline := time.Now().Add(verdictDeadline)
	for time.Now().Before(deadline) {
		var list sessionList
		if err := f.do("status", "GET", "/tenants/"+enhTenant+"/sessions", nil, &list); err != nil {
			return 0, err
		}
		for _, s := range list.Sessions {
			if s.ID != id {
				continue
			}
			if s.Rounds == last && s.Rounds > 0 {
				stable++
			} else {
				last, stable = s.Rounds, 0
			}
		}
		if stable >= 20 {
			return last, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return 0, fmt.Errorf("mixed session %d did not settle", id)
}

// cycle runs the nine PoCs in seeded order, then one mixed session on
// the next device in rotation.
func (f *fleet) cycle() {
	order := make([]int, len(f.pocs))
	for i := range order {
		order[i] = i
	}
	for i := len(order) - 1; i > 0; i-- {
		j := f.rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	for _, i := range order {
		if f.poc(f.pocs[i]) != nil {
			return
		}
	}
	_ = f.mixed(f.devices[f.cycles%len(f.devices)])
	f.cycles++
}

// exact returns nothing: fleet's seeded outcomes are checked against
// Table III instead.
func (f *fleet) exact() ([]float64, error) { return nil, nil }

func (f *fleet) setupLayers(p *phase) {
	p.layer("learn.cve_ms", f.learnCveMs, "ms")
}

func (f *fleet) run(d time.Duration, traced bool) (*phase, error) {
	f.reqs, f.detects, f.spans = f.reqs[:0], f.detects[:0], spanWriter{}
	f.attempted, f.failed, f.parityBad, f.err = 0, 0, 0, nil
	hub0 := f.hub.Stats()
	jrnl0 := f.d.Journal().Stats()
	f.start, f.warm = time.Now(), warmup(d)
	cycles0 := f.cycles
	for time.Since(f.start) < d {
		f.cycle()
	}
	cycles := float64(f.cycles - cycles0)
	f.start = time.Time{}

	p := newPhase("fleet", traced)
	p.attempted, p.failed = f.attempted, f.failed
	p.noteErr(f.err)
	// Status polls are how the script waits for a session; how many it
	// takes depends on the session, so they are timed as a layer only.
	var reqs []sample
	for _, r := range f.reqs {
		if r.route != "status" {
			reqs = append(reqs, r.sample)
		}
	}
	perSec, _ := rates(reqs, d-f.warm)
	lat := latenciesUs(reqs)
	// The script's requests differ in cost by two orders of magnitude,
	// so the plain median sits wherever the kinds' latency ranges meet
	// and jumps with the mixture. The gated median is each kind's median,
	// combined by geometric mean so that every kind weighs the same.
	logSum := 0.0
	for _, kind := range ctlKinds {
		logSum += math.Log(quantile(routeLatencies(f.reqs, kind), 0.5))
	}
	kindP50 := math.Exp(logSum / float64(len(ctlKinds)))
	p.setEndToEnd(perSec, kindP50, quantile(lat, 0.99))
	det := latenciesUs(f.detects)
	p.named("ctl_req_per_s", perSec, "requests/s")
	p.named("ctl_kind_p50_ms", kindP50/1e3, "ms")
	p.named("ctl_p50_ms", quantile(lat, 0.5)/1e3, "ms")
	p.named("ctl_p99_ms", p.p99Us/1e3, "ms")
	p.named("ctl_requests", float64(len(lat)), "count")
	p.named("detect_p50_ms", quantile(det, 0.5)/1e3, "ms")
	p.named("detect_p99_ms", quantile(det, 0.99)/1e3, "ms")
	p.named("detections", float64(len(det)), "count")

	p.tripwire("Table III verdict parity", f.parityBad)

	hub := f.hub.Stats()
	js := f.d.Journal().Status()
	p.tripwire("stream.dropped == 0", int(hub.TotalDropped))
	p.tripwire("journal.dropped == 0", int(js.Dropped))
	if traced {
		for _, route := range [][]string{{"install"}, {"attach"}, {"detach"}, {"enhance", "rollback"}} {
			name := route[0]
			if len(route) > 1 {
				name = "swap"
			}
			l := routeLatencies(f.reqs, route...)
			p.layer("daemon."+name+"_ms_p50", quantile(l, 0.5)/1e3, "ms")
			p.layer("daemon."+name+"_ms_p99", quantile(l, 0.99)/1e3, "ms")
		}
		p.layer("daemon.status_ms_p50", quantile(routeLatencies(f.reqs, "status"), 0.5)/1e3, "ms")
		p.layer("stream.events_per_cycle", float64(hub.TotalPublished-hub0.TotalPublished)/cycles, "count")
		p.layer("stream.dropped", float64(hub.TotalDropped), "count")
		p.layer("journal.records_per_cycle", float64(f.d.Journal().Stats().Appended-jrnl0.Appended)/cycles, "count")
		p.layer("journal.fsync_p99_us", js.FsyncP99Us, "us")
		p.layer("journal.dropped", float64(js.Dropped), "count")
		if err := f.specLayers(p); err != nil {
			return nil, err
		}
		p.spans = f.spans
	}
	return p, nil
}

func routeLatencies(rs []reqRec, routes ...string) []float64 {
	var ss []sample
	for _, r := range rs {
		if slices.Contains(routes, r.route) {
			ss = append(ss, r.sample)
		}
	}
	return latenciesUs(ss)
}

// specLayers times the spec lifecycle calls on every spec the daemon's
// store holds: store get, binary encode and decode, seal, and store put
// into a fresh store.
func (f *fleet) specLayers(p *phase) error {
	var get, enc, dec, seal, put []float64
	for _, tenant := range []string{pocTenant, enhTenant} {
		st, err := specstore.OpenNamespace(filepath.Join(f.dir, "store"), tenant)
		if err != nil {
			return err
		}
		st.SetStream(nil)
		for _, dev := range f.devices {
			r, _ := recipeByName(dev)
			d, _ := r.build()
			for _, v := range st.Versions(dev) {
				for rep := 0; rep < 3; rep++ {
					t0 := time.Now()
					spec, err := st.Load(d.Program(), v)
					get = append(get, usSince(t0))
					if err != nil {
						return err
					}
					t0 = time.Now()
					data, err := spec.EncodeBinary()
					enc = append(enc, usSince(t0))
					if err != nil {
						return err
					}
					t0 = time.Now()
					if _, err := core.DecodeBinary(d.Program(), data); err != nil {
						return err
					}
					dec = append(dec, usSince(t0))
					t0 = time.Now()
					spec.Seal()
					seal = append(seal, usSince(t0))
					fresh, err := specstore.Open(filepath.Join(f.dir, fmt.Sprintf("put-%d", len(put))))
					if err != nil {
						return err
					}
					fresh.SetStream(nil)
					t0 = time.Now()
					if _, err := fresh.Put(spec, specstore.VersionMeta{ProgramHash: v.ProgramHash, CorpusHash: v.CorpusHash, CreatedBy: "learn"}); err != nil {
						return err
					}
					put = append(put, usSince(t0))
				}
			}
		}
	}
	p.layer("core.seal_us", median(seal), "us")
	p.layer("core.encode_us", median(enc), "us")
	p.layer("core.decode_us", median(dec), "us")
	p.layer("specstore.get_us", median(get), "us")
	p.layer("specstore.put_us", median(put), "us")
	return nil
}

func usSince(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e3 }
