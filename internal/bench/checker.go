package bench

import (
	"fmt"
	"runtime"
	"time"

	"sedspec"
	"sedspec/internal/checker"
	"sedspec/internal/core"
	"sedspec/internal/interp"
	"sedspec/internal/machine"
	"sedspec/internal/simclock"
	"sedspec/internal/workload"
)

// reqRecorder is an interposer that deep-copies the benign request stream
// flowing into a device so it can later be replayed straight into a
// checker, without the device or machine in the loop.
type reqRecorder struct {
	reqs []*interp.Request
}

func (r *reqRecorder) PreIO(_ machine.Device, req *interp.Request) error {
	cl := &interp.Request{Space: req.Space, Addr: req.Addr, Write: req.Write}
	if len(req.Data) > 0 {
		cl.Data = append([]byte(nil), req.Data...)
	}
	r.reqs = append(r.reqs, cl)
	return nil
}

// CheckerReplay is a captured benign I/O stream plus everything needed to
// replay it through a fresh ES-Checker: the learned spec, the device
// control structure snapshot taken at capture start, and the machine
// attachment (kept alive so DMA sync points read the same guest memory
// the capture saw).
type CheckerReplay struct {
	Target *workload.Target
	Spec   *core.Spec
	Reqs   []*interp.Request

	att   *machine.Attached
	start *interp.State
}

// NewCheckerReplay learns the target's spec, brings the device up, and
// records the request stream of ops benign session operations. The
// captured stream is validated by replaying it through the production
// Checker and the Reference oracle for two full cycles: a clean capture
// raises zero anomalies, which is what makes cyclic replay a faithful
// per-I/O overhead probe.
func NewCheckerReplay(t *workload.Target, ops int) (*CheckerReplay, error) {
	_, att := setup(t)
	spec, err := learn(t, att)
	if err != nil {
		return nil, err
	}
	d := sedspec.NewDriver(att)
	sess := t.NewSession(d, simclock.NewRand(7))
	if sess.Prepare != nil {
		if err := sess.Prepare(); err != nil {
			return nil, fmt.Errorf("bench: prepare %s: %w", t.Name, err)
		}
	}
	start := att.Dev().State().Clone()

	rec := &reqRecorder{}
	att.AddInterposer(rec)
	for i := 0; i < ops; i++ {
		if err := sess.Op(); err != nil {
			return nil, fmt.Errorf("bench: capture %s op %d: %w", t.Name, i, err)
		}
	}
	att.ClearInterposers()
	if len(rec.reqs) == 0 {
		return nil, fmt.Errorf("bench: capture %s: empty request stream", t.Name)
	}

	r := &CheckerReplay{Target: t, Spec: spec, Reqs: rec.reqs, att: att, start: start}
	if err := r.validate("threaded", r.NewChecker()); err != nil {
		return nil, err
	}
	if err := r.validate("reference", checker.NewReference(spec, start, checker.WithEnv(att))); err != nil {
		return nil, err
	}
	return r, nil
}

// NewChecker builds a detached checker over the captured spec, wired to
// the capture machine's environment.
func (r *CheckerReplay) NewChecker(opts ...checker.Option) *checker.Checker {
	opts = append([]checker.Option{checker.WithEnv(r.att)}, opts...)
	return checker.New(r.Spec, r.start, opts...)
}

// Step replays request i (cyclically) through chk. At each wrap of the
// captured stream the shadow is resynchronized to the capture-start
// snapshot, so the simulation always sees the control-structure state the
// stream was recorded against.
func (r *CheckerReplay) Step(chk *checker.Checker, i int) error {
	return r.StepStream(chk, r.Reqs, i)
}

// StepStream is Step over an explicit request stream. Concurrent replay
// sessions each need their own stream (CloneReqs): a Request carries
// mutable read/response cursors, so sharing one across goroutines would
// race.
func (r *CheckerReplay) StepStream(chk *checker.Checker, reqs []*interp.Request, i int) error {
	j := i % len(reqs)
	if j == 0 {
		chk.ResyncShadow(r.start)
	}
	return chk.PreIO(nil, reqs[j])
}

// CloneReqs deep-copies the captured request stream for one replay
// session. The payload bytes are copied too, so sessions share nothing
// mutable.
func (r *CheckerReplay) CloneReqs() []*interp.Request {
	out := make([]*interp.Request, len(r.Reqs))
	for i, req := range r.Reqs {
		cl := &interp.Request{Space: req.Space, Addr: req.Addr, Write: req.Write}
		if len(req.Data) > 0 {
			cl.Data = append([]byte(nil), req.Data...)
		}
		out[i] = cl
	}
	return out
}

// replayEngine is what validate drives: a Checker or the Reference.
type replayEngine interface {
	machine.Interposer
	ResyncShadow(*interp.State)
	Stats() checker.Stats
}

// validate replays two full cycles through eng, resynchronizing the
// shadow at each wrap as Step does, and fails on any anomaly.
func (r *CheckerReplay) validate(engine string, eng replayEngine) error {
	for i := 0; i < 2*len(r.Reqs); i++ {
		j := i % len(r.Reqs)
		if j == 0 {
			eng.ResyncShadow(r.start)
		}
		if err := eng.PreIO(nil, r.Reqs[j]); err != nil {
			return fmt.Errorf("bench: %s replay (%s engine) request %d: %w",
				r.Target.Name, engine, j, err)
		}
	}
	if st := eng.Stats(); st.ParamAnomalies+st.IndirectAnomalies+st.CondAnomalies != 0 {
		return fmt.Errorf("bench: %s replay (%s engine): captured stream raised anomalies: %+v",
			r.Target.Name, engine, st)
	}
	return nil
}

// TimeChunk replays [from, from+n) rounds through a warmed checker,
// returning elapsed wall time and the heap allocation count delta. The
// recorder- and coverage-overhead guard tests use it for interleaved
// trials.
func (r *CheckerReplay) TimeChunk(chk *checker.Checker, from, n int) (time.Duration, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := from; i < from+n; i++ {
		if err := r.Step(chk, i); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	return elapsed, after.Mallocs - before.Mallocs, nil
}
