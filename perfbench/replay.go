package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"sedspec"
	"sedspec/internal/checker"
	"sedspec/internal/interp"
	"sedspec/internal/machine"
	"sedspec/internal/obs"
	"sedspec/internal/obs/stream"
	"sedspec/internal/simclock"
)

const (
	// tapeBlocks is how many blocks of the guest-io mix each device's
	// tape captures.
	tapeBlocks = 3
	// replayWindow is the number of I/Os timed together; windows
	// alternate between per-round PreIO and batched PreIOBatch.
	replayWindow = 64
)

// replay is the check-replay workload: benign tapes captured from the
// guest-io mix, replayed straight into per-session checkers with no
// machine or device in the loop.
type replay struct {
	tapes      []*tape
	workers    []*replayWorker
	learnMs    map[string]float64
	stepsPerIO float64
}

// tape is one device's captured benign I/O stream, with the engine it
// is checked against and the capture attachment, kept so that DMA sync
// points read the guest memory the capture saw.
type tape struct {
	name   string
	att    *machine.Attached
	start  *interp.State
	reqs   []*interp.Request
	shared *checker.Shared
}

// replaySession is one per-session checker with a private copy of its
// tape (a Request carries mutable cursors).
type replaySession struct {
	t        *tape
	spanName string
	chk      *checker.Checker
	reqs     []*interp.Request
	pos      int
	windows  int
}

type replayWorker struct {
	rng  *simclock.Rand
	sess []*replaySession

	attempted, failed int
	err               error

	cur     int
	vals    [][]float64 // per stratum: device x (per-round, batched)
	buckets []bucketStat
	spans   spanWriter
}

// bucketStat is one time window's count and per-I/O quantiles (ns):
// p50 and p99 averaged over the strata, and each stratum's median.
type bucketStat struct {
	idx      int
	count    int
	p50, p99 float64
	strata   []float64
}

// recorder deep-copies the request stream flowing into a device.
type recorder struct{ reqs []*interp.Request }

func (r *recorder) PreIO(_ machine.Device, req *interp.Request) error {
	r.reqs = append(r.reqs, cloneReq(req))
	return nil
}

func cloneReq(req *interp.Request) *interp.Request {
	cl := &interp.Request{Space: req.Space, Addr: req.Addr, Write: req.Write}
	if len(req.Data) > 0 {
		cl.Data = append([]byte(nil), req.Data...)
	}
	return cl
}

func newReplay(seed uint64, workers int) (*replay, error) {
	hub, reg := stream.NewHub(), obs.NewRegistry()
	w := &replay{learnMs: map[string]float64{}}
	var steps, rounds uint64
	for di, r := range recipes() {
		m := machine.New(machine.WithMemory(1 << 20))
		dev, opts := r.build()
		att := m.Attach(dev, opts...)
		t0 := time.Now()
		spec, err := sedspec.Learn(att, r.train)
		if err != nil {
			return nil, fmt.Errorf("check-replay: learn %s: %w", r.name, err)
		}
		w.learnMs[r.name] = msSince(t0)

		rng := simclock.NewRand(mix(seed, 0x7a9e, uint64(di)))
		g := r.newGuest(sedspec.NewDriver(att), rng)
		if err := g.prepare(); err != nil {
			return nil, fmt.Errorf("check-replay: prepare %s: %w", r.name, err)
		}
		t := &tape{name: r.name, att: att, start: att.Dev().State().Clone()}
		rec := &recorder{}
		att.AddInterposer(rec)
		for i := 0; i < tapeBlocks; i++ {
			for _, st := range planBlock(rng) {
				if _, err := g.do(st); err != nil {
					return nil, fmt.Errorf("check-replay: capture %s: %w", r.name, err)
				}
			}
		}
		att.ClearInterposers()
		t.reqs = rec.reqs
		t.shared = sedspec.NewSharedChecker(spec, checker.WithStream(hub), checker.WithObs(reg))

		// Validate: two full cycles through one session, zero anomalies.
		s := t.session()
		for i := 0; i < 2*len(s.reqs); i++ {
			j := i % len(s.reqs)
			if j == 0 {
				s.chk.ResyncShadow(t.start)
			}
			if err := s.chk.PreIO(nil, s.reqs[j]); err != nil {
				return nil, fmt.Errorf("check-replay: %s tape request %d: %w", r.name, j, err)
			}
		}
		st := s.chk.Stats()
		if n := st.ParamAnomalies + st.IndirectAnomalies + st.CondAnomalies; n != 0 {
			return nil, fmt.Errorf("check-replay: %s tape raised %d anomalies", r.name, n)
		}
		steps += st.StepsSimulated
		rounds += st.Rounds
		s.chk.Close()
		w.tapes = append(w.tapes, t)
	}
	w.stepsPerIO = float64(steps) / float64(rounds)
	for i := 0; i < workers; i++ {
		rw := &replayWorker{rng: simclock.NewRand(mix(seed, uint64(i), 0x5e55))}
		for _, t := range w.tapes {
			rw.sess = append(rw.sess, t.session())
		}
		w.workers = append(w.workers, rw)
	}
	return w, nil
}

// session opens a checker on the tape's engine, wired to the capture
// machine's environment, with a private copy of the tape.
func (t *tape) session(opts ...checker.Option) *replaySession {
	reqs := make([]*interp.Request, len(t.reqs))
	for i, req := range t.reqs {
		reqs[i] = cloneReq(req)
	}
	opts = append([]checker.Option{checker.WithEnv(t.att)}, opts...)
	return &replaySession{
		t:        t,
		spanName: "check-replay.window." + t.name,
		chk:      t.shared.NewSession(t.start, opts...),
		reqs:     reqs,
	}
}

// step replays the session's next window, alternating per-round and
// batched delivery; windows never straddle the tape's wrap, where the
// shadow is resynchronized to the capture-start state. It returns the
// number of I/Os, whether the window was batched, and the first failed
// verdict.
func (s *replaySession) step() (int, bool, error) {
	if s.pos == 0 {
		s.chk.ResyncShadow(s.t.start)
	}
	end := min(s.pos+replayWindow, len(s.reqs))
	win := s.reqs[s.pos:end]
	dev := s.t.att.Dev()
	batched := s.windows%2 == 1
	var err error
	if batched {
		vs := s.chk.PreIOBatch(win)
		for k := range vs {
			if !vs[k].Checked || vs[k].Err != nil {
				err = fmt.Errorf("check-replay: %s batched request %d: checked=%v err=%v", s.t.name, s.pos+k, vs[k].Checked, vs[k].Err)
				break
			}
		}
		s.chk.PostIO(dev, win[len(win)-1], nil)
	} else {
		for k, req := range win {
			if e := s.chk.PreIO(dev, req); e != nil && err == nil {
				err = fmt.Errorf("check-replay: %s request %d: %w", s.t.name, s.pos+k, e)
			}
			s.chk.PostIO(dev, req, nil)
		}
	}
	s.windows++
	if s.pos = end; s.pos == len(s.reqs) {
		s.pos = 0
	}
	return len(win), batched, err
}

func (w *replay) close() {
	for _, rw := range w.workers {
		for _, s := range rw.sess {
			s.chk.Close()
		}
	}
}

// exact returns the simulation steps per checked I/O over the tapes'
// validation.
func (w *replay) exact() ([]float64, error) { return []float64{w.stepsPerIO}, nil }

func (w *replay) setupLayers(p *phase) {
	for _, r := range recipes() {
		p.layer("learn."+r.name+"_ms", w.learnMs[r.name], "ms")
	}
}

func (w *replay) run(d time.Duration, traced bool) (*phase, error) {
	win := window(d)
	nb := int((d - warmup(d)) / win)
	runWorkers(len(w.workers), d, func(i int, start time.Time, warm, end time.Duration) {
		w.workers[i].loop(start, warm, end, win, traced)
	})

	p := newPhase("check-replay", traced)
	counts := make([]float64, nb)
	var p50s, p99s []float64
	for _, rw := range w.workers {
		p.attempted += rw.attempted
		p.failed += rw.failed
		p.noteErr(rw.err)
		for _, b := range rw.buckets {
			if b.idx >= nb {
				continue
			}
			counts[b.idx] += float64(b.count)
			if b.p50 > 0 {
				p50s = append(p50s, b.p50)
				p99s = append(p99s, b.p99)
			}
		}
	}
	for i := range counts {
		counts[i] /= win.Seconds()
	}
	p.setEndToEnd(median(counts), median(p50s)/1e3, median(p99s)/1e3)
	p.named("check_io_per_s", p.opsPerS, "I/Os/s")
	p.named("check_ns_p50", median(p50s), "ns")
	p.named("check_ns_p99", median(p99s), "ns")

	bad := 0
	for _, t := range w.tapes {
		st := t.shared.Stats()
		if n := st.ParamAnomalies + st.IndirectAnomalies + st.CondAnomalies; n != 0 {
			bad += int(n)
			p.noteErr(fmt.Errorf("check-replay: %s validated tape raised %d anomalies", t.name, n))
		}
	}
	p.tripwire("no anomaly on validated tapes", bad)
	allocs, err := w.allocsPerIO()
	if err != nil {
		return nil, err
	}
	leaked := 0
	if allocs != 0 {
		leaked = 1
	}
	p.tripwire("checker.allocs_per_io == 0", leaked)
	if traced {
		w.layers(p, allocs)
	}
	return p, nil
}

func (rw *replayWorker) loop(start time.Time, warm, end, win time.Duration, traced bool) {
	rw.attempted, rw.failed, rw.err = 0, 0, nil
	rw.cur, rw.buckets = -1, rw.buckets[:0]
	if rw.vals == nil {
		rw.vals = make([][]float64, 2*len(rw.sess))
	}
	for i := range rw.vals {
		rw.vals[i] = rw.vals[i][:0]
	}
	rw.spans = spanWriter{}
	for {
		di := rw.rng.Intn(len(rw.sess))
		s := rw.sess[di]
		t0 := time.Now()
		n, batched, err := s.step()
		t1 := time.Now()
		since := t1.Sub(start)
		if since >= end {
			break
		}
		if t0.Sub(start) < warm {
			continue
		}
		rw.attempted += n
		if err != nil {
			rw.failed++
			if rw.err == nil {
				rw.err = err
			}
		}
		ns := float64(t1.Sub(t0)) / float64(n)
		if b := int((since - warm) / win); b != rw.cur {
			rw.flush()
			rw.cur = b
			rw.buckets = append(rw.buckets, bucketStat{idx: b})
		}
		kind := 0
		if batched {
			kind = 1
		}
		rw.vals[2*di+kind] = append(rw.vals[2*di+kind], ns)
		rw.buckets[len(rw.buckets)-1].count += n
		if traced {
			rw.spans.add(s.spanName, 0, t0.Sub(epoch), t1.Sub(t0), n)
		}
	}
	rw.flush()
}

// flush closes the current time window and drops its samples, so
// memory stays flat however long the run. The window's quantiles are
// taken per stratum (device and delivery kind) and averaged: windows of
// different devices differ several-fold in cost, and a quantile of
// their mixture would jump between devices as the mixture shifts.
func (rw *replayWorker) flush() {
	var p50, p99 float64
	strata := make([]float64, len(rw.vals))
	n := 0
	for i, v := range rw.vals {
		if len(v) == 0 {
			continue
		}
		slices.Sort(v)
		strata[i] = quantile(v, 0.5)
		p50 += strata[i]
		p99 += quantile(v, 0.99)
		n++
		rw.vals[i] = v[:0]
	}
	if len(rw.buckets) > 0 && n == len(rw.vals) {
		b := &rw.buckets[len(rw.buckets)-1]
		b.p50, b.p99, b.strata = p50/float64(n), p99/float64(n), strata
	}
}

// allocsPerIO replays windows on one goroutine between two heap
// snapshots: the steady-state check path must not allocate.
func (w *replay) allocsPerIO() (float64, error) {
	rw := w.workers[0]
	for _, s := range rw.sess { // warm every session's scratch
		if _, _, err := s.step(); err != nil {
			return 0, err
		}
		if _, _, err := s.step(); err != nil {
			return 0, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ios := 0
	for i := 0; i < 200; i++ {
		n, _, err := rw.sess[i%len(rw.sess)].step()
		if err != nil {
			return 0, err
		}
		ios += n
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(ios), nil
}

// layers reports the check-replay per-layer metrics of a traced phase:
// per delivery kind and per device, the median over time windows of the
// window's per-I/O median, averaged over the other dimension.
func (w *replay) layers(p *phase, allocs float64) {
	var kinds [2][]float64
	devs := make([][]float64, len(w.tapes))
	for _, rw := range w.workers {
		for _, b := range rw.buckets {
			if b.strata == nil {
				continue
			}
			for k := range kinds {
				sum := 0.0
				for di := range devs {
					sum += b.strata[2*di+k]
				}
				kinds[k] = append(kinds[k], sum/float64(len(devs)))
			}
			for di := range devs {
				devs[di] = append(devs[di], (b.strata[2*di]+b.strata[2*di+1])/2)
			}
		}
		p.spans.spans = append(p.spans.spans, rw.spans.spans...)
	}
	p.layer("checker.replay_round_ns", median(kinds[0]), "ns")
	p.layer("checker.replay_batch_ns", median(kinds[1]), "ns")
	for di, t := range w.tapes {
		p.layer("checker."+t.name+".ns_per_io", median(devs[di]), "ns")
	}
	p.layer("checker.steps_per_io", w.stepsPerIO, "count")
	p.layer("checker.allocs_per_io", allocs, "count")
	rec, cov, str := w.subtraction()
	p.layer("obs.recorder_ns_per_io", rec, "ns")
	p.layer("obs.coverage_ns_per_io", cov, "ns")
	p.layer("obs.stream_ns_per_io", str, "ns")
}

// subtraction times the check path with the recorder, the coverage
// counters and the hub switched off in turn, against the production
// configuration, in interleaved chunks on one goroutine. Each cost is
// the median over chunks of the paired per-I/O difference.
func (w *replay) subtraction() (rec, cov, str float64) {
	variants := [][]checker.Option{
		nil,
		{checker.WithRecorder(nil)},
		{checker.WithCoverage(false)},
		{checker.WithStream(nil)},
	}
	sess := make([][]*replaySession, len(variants))
	for v, opts := range variants {
		for _, t := range w.tapes {
			sess[v] = append(sess[v], t.session(opts...))
		}
	}
	defer func() {
		for _, ss := range sess {
			for _, s := range ss {
				s.chk.Close()
			}
		}
	}()
	chunk := func(ss []*replaySession) float64 {
		t0 := time.Now()
		n := 0
		for _, s := range ss {
			for i := 0; i < 8; i++ {
				k, _, _ := s.step()
				n += k
			}
		}
		return float64(time.Since(t0)) / float64(n)
	}
	for v := range sess { // warm-up
		chunk(sess[v])
	}
	var dRec, dCov, dStr []float64
	for c := 0; c < 60; c++ {
		var ns [4]float64
		for i := range variants {
			v := (c + i) % len(variants)
			ns[v] = chunk(sess[v])
		}
		dRec = append(dRec, ns[0]-ns[1])
		dCov = append(dCov, ns[0]-ns[2])
		dStr = append(dStr, ns[0]-ns[3])
	}
	return median(dRec), median(dCov), median(dStr)
}
