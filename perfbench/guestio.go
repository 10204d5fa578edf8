package main

import (
	"fmt"
	"math"
	"time"

	"sedspec"
	"sedspec/internal/checker"
	"sedspec/internal/interp"
	"sedspec/internal/machine"
	"sedspec/internal/obs"
	"sedspec/internal/obs/stream"
	"sedspec/internal/simclock"
)

// prefixOps is the number of ops per load goroutine over which the
// deterministic tripwires (rounds and simulated time per op) are taken.
// The op sequence of a goroutine depends only on the seed, so these
// counts must be identical across runs of one seed.
const prefixOps = 200

// guestIO is the guest-io workload: per load goroutine, one protected
// guest per device, each on its own machine with a session checker
// drawn from one checker.Shared per device (production defaults:
// threaded engine, recorder and coverage on, a private hub with no
// subscriber).
type guestIO struct {
	shared  []*checker.Shared
	workers []*guestWorker
	learnMs map[string]float64
}

type guestWorker struct {
	rng    *simclock.Rand
	guests []*guestSession

	ops        int
	baseRounds uint64
	baseSimUs  int64
	prefix     struct {
		rounds float64
		simUs  float64
		done   bool
	}

	attempted, failed int
	err               error

	// Rounds and op time per kind of step actually issued.
	kindRounds [numStepKinds]int
	kindTime   [numStepKinds]time.Duration

	samples []sample
	rounds  roundLog
	opSpans []opSpan
}

// guestSession is one protected guest.
type guestSession struct {
	dev    string
	att    *machine.Attached
	chk    *checker.Checker
	tracer *tracer
	g      *guest
	rng    *simclock.Rand
	plan   []step
}

func newGuestIO(seed uint64, workers int) (*guestIO, error) {
	hub, reg := stream.NewHub(), obs.NewRegistry()
	w := &guestIO{learnMs: map[string]float64{}}
	rs := recipes()
	for _, r := range rs {
		m := machine.New(machine.WithMemory(1 << 20))
		dev, opts := r.build()
		att := m.Attach(dev, opts...)
		t0 := time.Now()
		spec, err := sedspec.Learn(att, r.train)
		if err != nil {
			return nil, fmt.Errorf("guest-io: learn %s: %w", r.name, err)
		}
		w.learnMs[r.name] = msSince(t0)
		w.shared = append(w.shared, sedspec.NewSharedChecker(spec,
			checker.WithStream(hub), checker.WithObs(reg)))
	}
	for i := 0; i < workers; i++ {
		gw := &guestWorker{rng: simclock.NewRand(mix(seed, uint64(i), 0x6e57))}
		for di, r := range rs {
			ms := machine.NewSession(i*len(rs)+di, r.build, machine.WithMemory(1<<20))
			att := ms.Attached()
			chk := sedspec.ProtectShared(att, w.shared[di])
			rng := simclock.NewRand(mix(seed, uint64(i), uint64(di)))
			gs := &guestSession{dev: r.name, att: att, chk: chk, g: r.newGuest(sedspec.NewDriver(att), rng), rng: rng}
			gs.tracer = &tracer{chk: chk, log: &gw.rounds}
			if err := gs.g.prepare(); err != nil {
				return nil, fmt.Errorf("guest-io: prepare %s: %w", r.name, err)
			}
			gw.guests = append(gw.guests, gs)
		}
		gw.baseRounds, gw.baseSimUs = gw.totals()
		w.workers = append(w.workers, gw)
	}
	return w, nil
}

// totals sums checked rounds and simulated microseconds over the
// worker's guests.
func (gw *guestWorker) totals() (uint64, int64) {
	var rounds uint64
	var sim int64
	for _, gs := range gw.guests {
		rounds += gs.chk.Stats().Rounds
		sim += gs.att.Machine().Clock.Now().Microseconds()
	}
	return rounds, sim
}

func (w *guestIO) close() {
	for _, gw := range w.workers {
		for _, gs := range gw.guests {
			gs.att.ClearInterposers()
			gs.chk.Close()
		}
	}
}

// setTraced installs the tracing interposer (or the bare checker) as the
// only interposer of every guest, so DispatchBatch keeps its batched
// path either way.
func (w *guestIO) setTraced(on bool) {
	for _, gw := range w.workers {
		for _, gs := range gw.guests {
			gs.att.ClearInterposers()
			if on {
				gs.att.AddInterposer(gs.tracer)
			} else {
				gs.att.AddInterposer(gs.chk)
			}
		}
	}
}

func (w *guestIO) run(d time.Duration, traced bool) (*phase, error) {
	w.setTraced(traced)
	for _, gw := range w.workers {
		gw.samples = gw.samples[:0]
		gw.rounds.reset()
		gw.opSpans = gw.opSpans[:0]
		gw.kindRounds, gw.kindTime = [numStepKinds]int{}, [numStepKinds]time.Duration{}
	}
	checkedBefore := w.checkedRounds()
	runWorkers(len(w.workers), d, func(i int, start time.Time, warm, end time.Duration) {
		w.workers[i].loop(start, warm, end, traced)
	})

	p := newPhase("guest-io", traced)
	var all []sample
	for _, gw := range w.workers {
		all = append(all, gw.samples...)
		p.attempted += gw.attempted
		p.failed += gw.failed
		p.noteErr(gw.err)
	}
	bad := 0
	for i, sh := range w.shared {
		st := sh.Stats()
		if n := st.ParamAnomalies + st.IndirectAnomalies + st.CondAnomalies + st.Blocked + st.Warnings; n > 0 {
			bad += int(n)
			p.noteErr(fmt.Errorf("guest-io: %s raised %d anomalies/blocks/warnings on benign traffic", recipes()[i].name, n))
		}
	}
	p.tripwire("no anomaly, warning or block on benign traffic", bad)
	perSec, bytesPerSec := rates(all, d-warmup(d))
	lat := latenciesUs(all)
	p.setEndToEnd(perSec, quantile(lat, 0.5), quantile(lat, 0.99))
	p.named("guest_io_per_s", perSec, "rounds/s")
	p.named("guest_op_p50_us", p.p50Us, "us")
	p.named("guest_op_p99_us", p.p99Us, "us")
	p.named("guest_mb_per_s", bytesPerSec/1e6, "MB/s")
	p.named("guest_ops", float64(len(all)), "count")

	var rounds, opTime [numStepKinds]float64
	var sumRounds, sumTime float64
	for _, gw := range w.workers {
		for k := range rounds {
			rounds[k] += float64(gw.kindRounds[k])
			opTime[k] += float64(gw.kindTime[k])
			sumRounds += float64(gw.kindRounds[k])
			sumTime += float64(gw.kindTime[k])
		}
	}
	for k, name := range stepNames {
		p.named("mix."+name+".rounds_pct", 100*rounds[k]/sumRounds, "%")
		p.named("mix."+name+".time_pct", 100*opTime[k]/sumTime, "%")
	}

	if traced {
		w.layers(p, checkedBefore)
		w.exportSpans(p)
	}
	// Untimed, after the layers are taken: a run too short for the
	// prefix completes it here.
	if err := w.finishPrefix(); err != nil {
		p.failed++
		p.noteErr(err)
	}
	gw := w.workers[0]
	p.layer("machine.rounds_per_op", gw.prefix.rounds, "count")
	p.layer("machine.sim_us_per_op", gw.prefix.simUs, "us")
	return p, nil
}

// finishPrefix issues, untimed, whatever remains of each load
// goroutine's deterministic prefix.
func (w *guestIO) finishPrefix() error {
	for _, gw := range w.workers {
		for !gw.prefix.done {
			gs, st := gw.next()
			_, err := gs.g.do(st)
			gw.count()
			if err != nil {
				return fmt.Errorf("guest-io: %s op: %w", gs.dev, err)
			}
		}
	}
	return nil
}

// exact returns each load goroutine's rounds and simulated microseconds
// per op over its prefix.
func (w *guestIO) exact() ([]float64, error) {
	if err := w.finishPrefix(); err != nil {
		return nil, err
	}
	var out []float64
	for _, gw := range w.workers {
		out = append(out, gw.prefix.rounds, gw.prefix.simUs)
	}
	return out, nil
}

func (w *guestIO) setupLayers(p *phase) {
	for _, r := range recipes() {
		p.layer("learn."+r.name+"_ms", w.learnMs[r.name], "ms")
	}
}

// exportSpans hands each op span and its child round spans to the span
// file.
func (w *guestIO) exportSpans(p *phase) {
	for _, gw := range w.workers {
		for _, op := range gw.opSpans {
			id := p.spans.add("guest-io.op."+op.dev, 0, op.start, op.dur, op.last-op.first)
			for _, r := range gw.rounds.recs[op.first:op.last] {
				name := "guest-io.round"
				if r.batch {
					name = "guest-io.batch"
				}
				p.spans.add(name, id, r.start, r.post+r.postDur, int(r.k))
			}
		}
	}
}

func (w *guestIO) checkedRounds() uint64 {
	var n uint64
	for _, sh := range w.shared {
		n += sh.Stats().Rounds
	}
	return n
}

// next picks the guest and the step of the goroutine's next op; the
// sequence depends only on the seed.
func (gw *guestWorker) next() (*guestSession, step) {
	gs := gw.guests[gw.rng.Intn(len(gw.guests))]
	if len(gs.plan) == 0 {
		gs.plan = planBlock(gs.rng)
	}
	st := gs.plan[0]
	gs.plan = gs.plan[1:]
	return gs, st
}

// count counts one issued op and takes the prefix counts at the
// prefixOps-th.
func (gw *guestWorker) count() {
	gw.ops++
	if gw.ops == prefixOps {
		rounds, sim := gw.totals()
		gw.prefix.rounds = float64(rounds-gw.baseRounds) / prefixOps
		gw.prefix.simUs = float64(sim-gw.baseSimUs) / prefixOps
		gw.prefix.done = true
	}
}

// loop is one load goroutine's closed loop: pick a guest, issue its
// next step of the mix, record it.
func (gw *guestWorker) loop(start time.Time, warm, end time.Duration, traced bool) {
	gw.attempted, gw.failed, gw.err = 0, 0, nil
	for time.Since(start) < end {
		gs, st := gw.next()
		r0 := gs.chk.Stats().Rounds
		mark := gw.rounds.len()
		t0 := time.Now()
		bytes, err := gs.g.do(st)
		t1 := time.Now()
		gw.count()
		if t0.Sub(start) < warm {
			gw.rounds.truncate(mark)
			continue
		}
		gw.attempted++
		if err != nil {
			gw.failed++
			if gw.err == nil {
				gw.err = fmt.Errorf("guest-io: %s op: %w", gs.dev, err)
			}
		}
		rounds := int(gs.chk.Stats().Rounds - r0)
		gw.samples = append(gw.samples, sample{
			end:   t1.Sub(start) - warm,
			dur:   t1.Sub(t0),
			count: rounds,
			bytes: bytes,
		})
		k := gs.g.kind(st)
		gw.kindRounds[k] += rounds
		gw.kindTime[k] += t1.Sub(t0)
		if traced {
			gw.opSpans = append(gw.opSpans, opSpan{
				dev: gs.dev, start: t0.Sub(epoch), dur: t1.Sub(t0),
				first: mark, last: gw.rounds.len(),
			})
		}
	}
}

// layers derives the guest-io per-layer metrics from the traced phase.
func (w *guestIO) layers(p *phase, checkedBefore uint64) {
	var roundNs, exitNs, preNs, postNs, batchNs []float64
	var delivered, sumCheck, sumRound float64
	var opTime, opLayers float64
	for _, gw := range w.workers {
		delivered += float64(gw.rounds.delivered)
		for _, r := range gw.rounds.recs {
			k := float64(r.k)
			round := float64(r.post + r.postDur)
			check := float64(r.pre + r.postDur)
			sumCheck += check
			sumRound += round
			roundNs = append(roundNs, round/k)
			exitNs = append(exitNs, float64(r.post-r.pre)/k)
			postNs = append(postNs, float64(r.postDur))
			if r.batch {
				batchNs = append(batchNs, float64(r.pre)/k)
			} else {
				preNs = append(preNs, float64(r.pre))
			}
		}
		for _, op := range gw.opSpans {
			opTime += float64(op.dur)
			for _, r := range gw.rounds.recs[op.first:op.last] {
				opLayers += float64(r.post + r.postDur)
			}
		}
	}
	p.layer("machine.round_ns_p50", median(roundNs), "ns")
	p.layer("machine.exit_emul_ns_p50", median(exitNs), "ns")
	p.layer("checker.preio_ns_p50", median(preNs), "ns")
	p.layer("checker.preio_ns_p99", sortedQuantile(preNs, 0.99), "ns")
	p.layer("checker.batch_ns_per_io", median(batchNs), "ns")
	p.layer("checker.postio_ns_p50", median(postNs), "ns")
	p.layer("checker.share_pct", 100*sumCheck/sumRound, "%")
	checked := float64(w.checkedRounds() - checkedBefore)
	p.layer("checker.rounds_per_io", checked/delivered, "count")
	p.tripwire("checker.rounds_per_io == 1", int(math.Abs(checked-delivered)))
	closure := 100 * opLayers / opTime
	p.layer("closure.guest_io_pct", closure, "%")
	open := 0
	if closure < 90 || closure > 110 {
		open = 1
	}
	p.tripwire("layers account for guest-op time within 10%", open)
}

// tracer is the benchmark's only interposer in a traced guest-io run:
// it forwards PreIO, PreIOBatch and PostIO to the session checker and
// records how long each took and the gap between them (the modelled VM
// exit plus device emulation).
type tracer struct {
	chk *checker.Checker
	log *roundLog

	t0, t1 time.Time
	k      int
	batch  bool
}

var (
	_ machine.BatchInterposer = (*tracer)(nil)
	_ machine.PostInterposer  = (*tracer)(nil)
)

func (t *tracer) PreIO(dev machine.Device, req *interp.Request) error {
	t.t0 = time.Now()
	err := t.chk.PreIO(dev, req)
	t.t1 = time.Now()
	t.k, t.batch = 1, false
	return err
}

func (t *tracer) PreIOBatch(reqs []*interp.Request) []machine.Verdict {
	t.t0 = time.Now()
	vs := t.chk.PreIOBatch(reqs)
	t.t1 = time.Now()
	k := 0
	for k < len(vs) && vs[k].Checked && !vs[k].Blocked {
		k++
	}
	t.k, t.batch = k, true
	return vs
}

func (t *tracer) PostIO(dev machine.Device, req *interp.Request, res *interp.Result) {
	t2 := time.Now()
	t.chk.PostIO(dev, req, res)
	t3 := time.Now()
	if t.k == 0 {
		return
	}
	t.log.add(roundRec{
		start:   t.t0.Sub(epoch),
		pre:     t.t1.Sub(t.t0),
		post:    t2.Sub(t.t0),
		postDur: t3.Sub(t2),
		k:       int32(t.k),
		batch:   t.batch,
	})
	t.k = 0
}
