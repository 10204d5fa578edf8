// Command perfbench is the repository benchmark: three seeded workloads,
// each making a different module do most of the work.
//
//   - guest-io: protected guests on all five devices (machine, device
//     emulation and the check layer on the dispatch path).
//   - check-replay: captured benign I/O tapes replayed straight into
//     per-session checkers (the check engine alone).
//   - fleet: an in-process sedspecd driven over loopback HTTP (control
//     plane, spec store, hot swap, hub and journal).
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced
// run (-trace 1) reports per-layer metrics, timed around calls into each
// module's public functions from this package only. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics. Run it through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload guest-io --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"
)

// workloadNames lists the workloads in a fixed order.
var workloadNames = []string{"guest-io", "check-replay", "fleet"}

// setups is how many times a run sets its workload up; setup_s is the
// median.
var setups = map[string]int{"guest-io": 5, "check-replay": 3, "fleet": 3}

// probeSeconds is how long a traced run drives each of the other two
// workloads, so that every layer metric is measured in every traced run.
const probeSeconds = 2

// probeSetups is how many times a traced run sets up each probed
// workload: the first of two set-ups only gives the exact counts the
// probed one must repeat, and fleet has no exact counts.
var probeSetups = map[string]int{"guest-io": 2, "check-replay": 2, "fleet": 1}

// setupAllowance is what a run may take beyond its measured seconds
// (set-ups, the exact-count prefixes, the probes of a traced run)
// before it is stopped.
const setupAllowance = 165 * time.Second

type bench interface {
	run(d time.Duration, traced bool) (*phase, error)
	// setupLayers reports the layer metrics measured during set-up.
	setupLayers(p *phase)
	// exact returns counts that the seed alone determines, running the
	// workload's deterministic prefix first if it has not run yet.
	// Every set-up of one seed must return the same counts.
	exact() ([]float64, error)
	close()
}

type env struct {
	root    string // checkout root
	scratch string // per-run scratch directory under perfbench/.cache
	seed    uint64
	workers int
}

func newWorkload(name string, e *env, n int) (bench, error) {
	switch name {
	case "guest-io":
		return newGuestIO(e.seed, e.workers)
	case "check-replay":
		return newReplay(e.seed, e.workers)
	case "fleet":
		return newFleet(e, n)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

func main() {
	name := flag.String("workload", "", "workload to run: guest-io, check-replay or fleet")
	seed := flag.Uint64("seed", 1, "seed all inputs derive from")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	root := flag.String("root", ".", "checkout root")
	flag.Parse()

	if err := validate(*name, *seconds, *trace); err != nil {
		fail(err)
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		fail(err)
	}
	if _, err := os.Stat(filepath.Join(abs, "go.mod")); err != nil {
		fail(fmt.Errorf("%s is not a checkout of the repository: %w", abs, err))
	}
	e := &env{
		root:    abs,
		scratch: filepath.Join(abs, "perfbench", ".cache", fmt.Sprintf("run-%d", os.Getpid())),
		seed:    *seed,
		workers: min(2, runtime.NumCPU()),
	}
	d := time.Duration(*seconds) * time.Second
	limit := d + setupAllowance
	timer := time.AfterFunc(limit, func() {
		os.RemoveAll(e.scratch)
		fail(fmt.Errorf("run did not finish within %s", limit))
	})
	res, err := benchmark(e, *name, d, *trace == 1)
	os.RemoveAll(e.scratch)
	timer.Stop()
	if err != nil {
		fail(err)
	}
	res.print(os.Stdout)
}

func validate(name string, seconds, trace int) error {
	if !slices.Contains(workloadNames, name) {
		return fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return errors.New("-trace must be 0 or 1")
	}
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// benchmark sets the workload up several times, then measures it.
func benchmark(e *env, name string, d time.Duration, traced bool) (*result, error) {
	res := &result{fp: hostFingerprint(e.root, e.seed), root: e.root, workload: name, traced: traced}
	w, times, ref, err := setUp(e, name, setups[name])
	if err != nil {
		return nil, err
	}
	defer w.close()

	if !traced {
		p, err := w.run(d, false)
		if err != nil {
			return nil, err
		}
		if err := checkExact(p, w, ref); err != nil {
			return nil, err
		}
		res.add(p)
		res.metric("setup_s", median(times), "s")
		res.metric("peak_rss_mb", peakRSSMiB(), "MiB")
		res.metric("ops_per_s", p.opsPerS, "1/s")
		res.metric("op_p50_us", p.p50Us, "us")
		res.metric("op_p99_us", p.p99Us, "us")
		return res, nil
	}

	// Traced: the workload runs untraced, then traced, for half the time
	// each, so the tracing overhead is measured in the same process.
	half := max(d/2, time.Second)
	pu, err := w.run(half, false)
	if err != nil {
		return nil, err
	}
	pt, err := w.run(half, true)
	if err != nil {
		return nil, err
	}
	if err := checkExact(pt, w, ref); err != nil {
		return nil, err
	}
	res.add(pu)
	res.add(pt)
	w.setupLayers(pt)
	res.layers(pt)
	res.metric("trace.ops_per_s_pct", pctChange(pu.opsPerS, pt.opsPerS), "%")
	res.metric("trace.op_p50_us_pct", pctChange(pu.p50Us, pt.p50Us), "%")
	res.metric("trace.op_p99_us_pct", pctChange(pu.p99Us, pt.p99Us), "%")
	for _, other := range workloadNames {
		if other == name {
			continue
		}
		po, err := probe(e, other)
		if err != nil {
			return nil, err
		}
		res.add(po)
		res.layers(po)
	}
	return res, nil
}

// setUp sets a workload up n times and returns the last set-up, the
// time each set-up took, and the exact counts of the first. Each set-up
// is closed and its garbage collected before the next, so peak memory
// reflects one set-up at a time.
func setUp(e *env, name string, n int) (bench, []float64, []float64, error) {
	var times, ref []float64
	var w bench
	for i := 0; i < n; i++ {
		if w != nil {
			w.close()
			runtime.GC()
		}
		t0 := time.Now()
		wi, err := newWorkload(name, e, i)
		if err != nil {
			return nil, nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		w = wi
		if i == 0 {
			if ref, err = w.exact(); err != nil {
				w.close()
				return nil, nil, nil, err
			}
		}
	}
	return w, times, ref, nil
}

// probe drives another workload traced for probeSeconds, so that a
// traced run reports every layer metric.
func probe(e *env, name string) (*phase, error) {
	w, _, ref, err := setUp(e, name, probeSetups[name])
	if err != nil {
		return nil, err
	}
	defer w.close()
	p, err := w.run(probeSeconds*time.Second, true)
	if err != nil {
		return nil, err
	}
	if err := checkExact(p, w, ref); err != nil {
		return nil, err
	}
	w.setupLayers(p)
	return p, nil
}

// checkExact compares the measured set-up's exact counts with those of
// the first set-up of the same seed; each count that differs is a
// violation. A workload without exact counts has no such tripwire.
func checkExact(p *phase, w bench, ref []float64) error {
	got, err := w.exact()
	if err != nil || len(got)+len(ref) == 0 {
		return err
	}
	diff := 0
	for i := range max(len(got), len(ref)) {
		if i >= len(got) || i >= len(ref) || got[i] != ref[i] {
			diff++
		}
	}
	if diff > 0 {
		p.noteErr(fmt.Errorf("%s: exact counts %v differ from %v of another set-up of the same seed", p.workload, got, ref))
	}
	p.tripwire("exact counts identical across set-ups of one seed", diff)
	return nil
}

func pctChange(from, to float64) float64 {
	if from == 0 {
		return 0
	}
	return 100 * (to - from) / from
}

// phase is the outcome of one measured stretch of one workload.
type phase struct {
	workload          string
	traced            bool
	attempted, failed int
	errs              []string

	opsPerS, p50Us, p99Us float64

	aliases   []namedMetric
	layerVals map[string]metric
	order     []string
	tripwires []tripwire
	spans     spanWriter
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type namedMetric struct {
	name string
	metric
}

type tripwire struct {
	name string
	ok   bool
}

func newPhase(workload string, traced bool) *phase {
	return &phase{workload: workload, traced: traced, layerVals: map[string]metric{}}
}

func (p *phase) setEndToEnd(opsPerS, p50Us, p99Us float64) {
	p.opsPerS, p.p50Us, p.p99Us = opsPerS, p50Us, p99Us
}

// named records an end-to-end figure under its workload-specific name,
// printed in the report beside the generic metrics.
func (p *phase) named(name string, v float64, unit string) {
	p.aliases = append(p.aliases, namedMetric{name, metric{v, unit}})
}

func (p *phase) layer(name string, v float64, unit string) {
	if _, ok := p.layerVals[name]; !ok {
		p.order = append(p.order, name)
	}
	p.layerVals[name] = metric{v, unit}
}

// tripwire records a correctness check; each violation counts as a
// failed operation.
func (p *phase) tripwire(name string, violations int) {
	p.tripwires = append(p.tripwires, tripwire{name, violations == 0})
	p.failed += violations
}

func (p *phase) noteErr(err error) {
	if err != nil && len(p.errs) < 5 {
		p.errs = append(p.errs, err.Error())
	}
}

// result is what a run prints.
type result struct {
	fp        fingerprint
	root      string
	workload  string
	traced    bool
	attempted int
	failed    int
	phases    []*phase
	metrics   map[string]metric
	order     []string
}

func (r *result) add(p *phase) {
	r.phases = append(r.phases, p)
	r.attempted += p.attempted
	r.failed += p.failed
}

func (r *result) metric(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	if _, ok := r.metrics[name]; ok {
		return
	}
	r.metrics[name] = metric{v, unit}
	r.order = append(r.order, name)
}

// layers copies a phase's layer metrics; the first phase to report a
// metric wins.
func (r *result) layers(p *phase) {
	for _, name := range p.order {
		m := p.layerVals[name]
		r.metric(name, m.Value, m.Unit)
	}
}

func (r *result) print(w io.Writer) {
	fp, _ := json.Marshal(r.fp)
	fmt.Fprintf(w, "fingerprint %s\n", fp)
	fmt.Fprintf(w, "workload %s trace %t\n", r.workload, r.traced)
	for _, p := range r.phases {
		label := p.workload
		if p.traced {
			label += "(traced)"
		}
		for _, m := range p.aliases {
			fmt.Fprintf(w, "%s %s %.6g %s\n", label, m.name, m.Value, m.Unit)
		}
		for _, t := range p.tripwires {
			state := "ok"
			if !t.ok {
				state = "VIOLATED"
			}
			fmt.Fprintf(w, "%s tripwire %s %s\n", label, t.name, state)
		}
		for _, e := range p.errs {
			fmt.Fprintf(w, "%s error %s\n", label, e)
		}
	}
	names := slices.Clone(r.order)
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %s %.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	if r.traced {
		if err := r.writeSpans(); err != nil {
			fmt.Fprintf(w, "spans not written: %v\n", err)
		}
	}
	// Every violated tripwire counted into failed.
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, max(r.attempted, 1), r.failed, r.metrics})
	fmt.Fprintln(w, string(out))
}

// writeSpans exports the traced phases' spans to perfbench/.out.
func (r *result) writeSpans() error {
	var all spanWriter
	for _, p := range r.phases {
		all.spans = append(all.spans, p.spans.spans...)
	}
	dir := filepath.Join(r.root, "perfbench", ".out")
	return all.write(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", r.workload, r.fp.Seed), r.fp)
}

// runWorkers runs n load goroutines against one clock: each gets the
// common start, the warm-up it must discard, and the end of the run.
func runWorkers(n int, d time.Duration, fn func(i int, start time.Time, warm, end time.Duration)) {
	var wg sync.WaitGroup
	start := time.Now()
	warm := warmup(d)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i, start, warm, d)
		}(i)
	}
	wg.Wait()
}

// warmup is the discarded head of a measured stretch.
func warmup(d time.Duration) time.Duration { return min(d/10, 500*time.Millisecond) }

// window is the length of the time windows check-replay takes its
// quantiles over: about twenty per run, at least 100ms.
func window(d time.Duration) time.Duration { return max((d-warmup(d))/20, 100*time.Millisecond) }

// mix derives a sub-seed.
func mix(seed uint64, a, b uint64) uint64 {
	x := seed ^ a*0x9e3779b97f4a7c15 ^ b*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return x | 1
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e6 }
