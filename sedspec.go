// Package sedspec reproduces "SEDSpec: Securing Emulated Devices by
// Enforcing Execution Specification" (DSN 2024): it automatically derives
// an execution specification (ES-CFG) for an emulated device from traces of
// benign I/O interactions and enforces it at runtime with three check
// strategies, detecting vulnerability exploitation before the device
// executes the offending I/O.
//
// The workflow mirrors the paper's three phases:
//
//  1. Data collection: run benign training samples against the device with
//     the software processor-trace module attached, build the ITC-CFG, and
//     select device-state parameters (Learn does this internally).
//  2. Execution specification construction: log the selected parameters
//     at the observation points and construct the ES-CFG from the
//     device-state-change log. Learn observes every field during the
//     traced run and keeps only the selected ones, so the training
//     samples run once.
//  3. Runtime protection: attach an ES-Checker to the device's I/O path
//     (Protect), simulating the specification for each interaction and
//     blocking or warning on violations.
//
// A minimal session:
//
//	m := sedspec.NewMachine()
//	dev := fdc.New()
//	att := m.Attach(dev, machine.WithPIO(fdc.PortBase, fdc.PortCount))
//	spec, err := sedspec.Learn(att, func(d *sedspec.Driver) error {
//	    return workload.Train(d, ...)
//	})
//	chk := sedspec.Protect(att, spec, checker.WithMode(checker.ModeProtection))
package sedspec

import (
	"fmt"

	"sedspec/internal/analysis"
	"sedspec/internal/checker"
	"sedspec/internal/core"
	"sedspec/internal/interp"
	"sedspec/internal/ir"
	"sedspec/internal/itccfg"
	"sedspec/internal/machine"
	"sedspec/internal/obs"
	"sedspec/internal/obs/coverage"
	"sedspec/internal/obs/stream"
	"sedspec/internal/trace"
)

// Re-exported handles so that example programs only import the facade and
// the packages they construct devices from.
type (
	// Machine is the hypervisor substrate hosting emulated devices.
	Machine = machine.Machine
	// Attached is a device plugged into a machine.
	Attached = machine.Attached
	// Spec is a device execution specification (ES-CFG).
	Spec = core.Spec
	// Checker is the runtime-protection proxy.
	Checker = checker.Checker
	// Selection is the device state chosen by the CFG analyzer.
	Selection = analysis.Selection
	// Anomaly is a detected specification violation.
	Anomaly = checker.Anomaly
	// SharedChecker is the cross-session enforcement engine: one sealed
	// specification shared read-only by N concurrent per-session checkers.
	SharedChecker = checker.Shared
	// FlightRecorder is a session's always-on event ring plus metric bank.
	FlightRecorder = obs.Recorder
	// TraceEvent is one checked I/O in a flight-recorder ring.
	TraceEvent = obs.Event
	// AnomalyContext is the frozen trace window attached to a blocking
	// anomaly.
	AnomalyContext = obs.AnomalyContext
	// Metrics is one device's aggregated counters and histograms.
	Metrics = obs.MetricsSnapshot
	// MetricsRegistry tracks flight recorders and aggregates their metrics.
	MetricsRegistry = obs.Registry
	// CoverageProfile is a spec generation's ES-CFG coverage picture:
	// structure annotated with training and runtime hit counts.
	CoverageProfile = coverage.Profile
	// CoverageDrift is the structural and behavioral difference between
	// two generations' coverage profiles.
	CoverageDrift = coverage.Drift
	// CoverageSnapshot is a raw per-generation counter snapshot, dense in
	// the sealed spec's block and edge index spaces.
	CoverageSnapshot = coverage.Snapshot
	// CoverageEdge is one trained ES-CFG edge with its hit count.
	CoverageEdge = coverage.EdgeCov
	// TelemetryHub is the bounded non-blocking broadcast hub the checkers
	// publish fleet telemetry into (anomalies, swaps, session lifecycle).
	TelemetryHub = stream.Hub
	// TelemetryEvent is one typed, sequence-numbered event on the hub.
	TelemetryEvent = stream.Event
	// FleetSnapshot is the health aggregator's one-stop fleet picture,
	// folded on each read: per-device counters, steps quantiles,
	// coverage, hub traffic and build identity.
	FleetSnapshot = stream.FleetSnapshot
)

// DiffCoverage compares two coverage profiles, older to newer.
func DiffCoverage(from, to *CoverageProfile) *CoverageDrift { return coverage.Diff(from, to) }

// WithRecorder installs a caller-owned flight recorder on a checker
// (WithRecorder(nil) disables recording entirely).
func WithRecorder(rec *obs.Recorder) checker.Option { return checker.WithRecorder(rec) }

// WithStream routes a checker's telemetry events to a caller-owned hub
// instead of the process-wide default (WithStream(nil) disables
// publication entirely).
func WithStream(h *stream.Hub) checker.Option { return checker.WithStream(h) }

// Stream returns the process-wide telemetry hub the checkers publish
// into unless redirected with WithStream.
func Stream() *TelemetryHub { return stream.Default() }

// ObsDefault returns the process-wide observability registry the
// checkers report into unless redirected with checker.WithObs.
func ObsDefault() *obs.Registry { return obs.Default() }

// NewMachine creates a machine with default guest memory.
func NewMachine(opts ...machine.Option) *Machine { return machine.New(opts...) }

// Driver issues guest I/O against one device during training or workloads.
// It dispatches directly to the device (bypassing bus routing), bracketing
// each interaction with the recorder when one is installed.
type Driver struct {
	att *machine.Attached
	rec *analysis.Recorder
}

// NewDriver returns a plain driver (no recording) for workloads.
func NewDriver(att *machine.Attached) *Driver { return &Driver{att: att} }

// Attached returns the underlying attachment.
func (d *Driver) Attached() *machine.Attached { return d.att }

// Machine returns the hosting machine (guest memory, clock, IRQs).
func (d *Driver) Machine() *machine.Machine { return d.att.Machine() }

func (d *Driver) dispatch(req *interp.Request) (*interp.Result, error) {
	if d.rec != nil {
		d.rec.Begin(req)
	}
	res, err := d.att.DispatchDirect(req)
	if d.rec != nil {
		d.rec.End(res)
	}
	return res, err
}

// Out issues a port write.
func (d *Driver) Out(port uint64, data []byte) (*interp.Result, error) {
	return d.dispatch(interp.NewWrite(interp.SpacePIO, port, data))
}

// Out8 issues a one-byte port write.
func (d *Driver) Out8(port uint64, v byte) (*interp.Result, error) {
	return d.Out(port, []byte{v})
}

// In issues a port read and returns the device's response bytes.
func (d *Driver) In(port uint64) ([]byte, *interp.Result, error) {
	req := interp.NewRead(interp.SpacePIO, port)
	res, err := d.dispatch(req)
	if err != nil {
		return nil, nil, err
	}
	return res.Output, res, nil
}

// MMIOWrite issues a memory-mapped write.
func (d *Driver) MMIOWrite(addr uint64, data []byte) (*interp.Result, error) {
	return d.dispatch(interp.NewWrite(interp.SpaceMMIO, addr, data))
}

// MMIORead issues a memory-mapped read.
func (d *Driver) MMIORead(addr uint64) ([]byte, *interp.Result, error) {
	req := interp.NewRead(interp.SpaceMMIO, addr)
	res, err := d.dispatch(req)
	if err != nil {
		return nil, nil, err
	}
	return res.Output, res, nil
}

// TrainFunc issues benign training I/O through the driver. Learn invokes
// it once per learn; it must be deterministic (seed any randomness inside
// the function) so that the same corpus learns the same spec.
type TrainFunc func(d *Driver) error

// LearnResult carries the artifacts of specification construction.
type LearnResult struct {
	Spec   *core.Spec
	Params *analysis.Selection
	Graph  *itccfg.Graph
	Log    *analysis.Log
	Trace  trace.Stats
}

// Learn runs the paper's phases 1 and 2 for an attached device: run the
// training samples once, traced and observed with every field watched,
// build the ITC-CFG, select device-state parameters, narrow the
// observation log to them, and construct the execution specification.
// The device is reset before the run and after learning.
func Learn(att *machine.Attached, train TrainFunc) (*core.Spec, error) {
	r, err := LearnFull(att, train)
	if err != nil {
		return nil, err
	}
	return r.Spec, nil
}

// LearnFull is Learn, returning all intermediate artifacts: Train, then
// a Resume of its checkpoint that replays nothing.
func LearnFull(att *machine.Attached, train TrainFunc) (*LearnResult, error) {
	cp, err := Train(att, train)
	if err != nil {
		return nil, err
	}
	return cp.Resume(att, nil)
}

// Checkpoint is a learn stopped at the end of its training run (phase
// 1a): the trace packets and statistics, the capture recorder's log and
// values, and the machine and attachment state the run left behind. It
// is immutable: each Resume continues from it on its own copy-on-write
// view, so one training run serves any number of learns that extend the
// same corpus, in any order or concurrently.
type Checkpoint struct {
	prog *ir.Program
	col  *trace.Collector
	rec  *analysis.Recorder
	run  *machine.Checkpoint
}

// Train runs phase 1a: the device is reset, then the training samples
// run once, traced (processor-trace collection) and observed (every
// field watched) at once. A nil train runs no samples.
func Train(att *machine.Attached, train TrainFunc) (*Checkpoint, error) {
	dev := att.Dev()
	prog := dev.Program()
	dev.Reset()
	cp := &Checkpoint{
		prog: prog,
		col:  trace.NewCollector(trace.DeviceConfig(prog)),
		rec:  analysis.NewCaptureRecorder(prog),
	}
	if train != nil {
		if err := observe(att, cp.col, cp.rec, train); err != nil {
			return nil, fmt.Errorf("sedspec: training run: %w", err)
		}
	}
	cp.run = att.Checkpoint()
	return cp, nil
}

// observe runs issue on att with col tracing and rec observing every
// field.
func observe(att *machine.Attached, col *trace.Collector, rec *analysis.Recorder, issue TrainFunc) error {
	in := att.Interp()
	in.SetTracer(col)
	in.SetObserver(rec)
	in.SetWatch(rec.Watch())
	err := issue(&Driver{att: att, rec: rec})
	in.SetTracer(nil)
	in.SetObserver(nil)
	in.SetWatch(nil)
	return err
}

// Resume finishes a learn from the checkpoint. When audit is non-empty,
// att (an attachment of the program the checkpoint trained, such as a
// fresh instance of the device) takes the checkpoint's machine state and
// each audited request replays on it in order, traced and observed, as
// if it had followed the training samples in one run. Then phase 1b
// builds the ITC-CFG, selects device-state parameters and narrows the
// observation log to them, and phase 2 constructs the execution
// specification. att's device is reset afterwards. The checkpoint is
// left unchanged.
func (cp *Checkpoint) Resume(att *machine.Attached, audit []AuditRecord) (*LearnResult, error) {
	prog := cp.prog
	if att.Dev().Program() != prog {
		return nil, fmt.Errorf("sedspec: resume: checkpoint of %s cannot resume on %s", prog.Name, att.Dev().Name())
	}
	col, rec := cp.col.Fork(), cp.rec.Fork()
	if len(audit) > 0 {
		if err := att.Resume(cp.run); err != nil {
			return nil, fmt.Errorf("sedspec: resume: %w", err)
		}
		err := observe(att, col, rec, func(d *Driver) error {
			for i := range audit {
				if err := replayAudit(d, &audit[i]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	// Phase 1b: ITC-CFG construction and parameter selection, then the
	// observation log narrowed to the selected parameters.
	runs, err := trace.Decode(prog, col.Packets())
	if err != nil {
		return nil, fmt.Errorf("sedspec: decode trace: %w", err)
	}
	graph := itccfg.New(prog)
	for _, run := range runs {
		graph.AddRun(run)
	}
	params := analysis.SelectParams(graph)
	log := rec.Project(params.WatchList())

	// Phase 2: ES-CFG construction.
	spec, err := core.Build(prog, params, log)
	if err != nil {
		return nil, fmt.Errorf("sedspec: build spec: %w", err)
	}
	att.Dev().Reset()
	return &LearnResult{
		Spec:   spec,
		Params: params,
		Graph:  graph,
		Log:    log,
		Trace:  col.Stats(),
	}, nil
}

// Protect attaches an ES-Checker enforcing the specification to the
// device's I/O path (the paper's phase 3): ProtectShared over a private
// engine. The checker's shadow device state is initialized from the
// device control structure's current values. The checker's flight
// recorder and anomalies carry the machine's virtual clock and the
// attachment's session ID.
func Protect(att *machine.Attached, spec *core.Spec, opts ...checker.Option) *checker.Checker {
	return ProtectShared(att, NewSharedChecker(spec, opts...), opts...)
}

// Unprotect removes all interposers (the checker) from the device,
// retiring every attached checker first: its counters fold into its
// engine's retired bank and its flight recorder folds into the
// observability registry. Without the retire step a re-ProtectShared on
// the same attachment would leave the old session's live stats bank
// registered alongside the new one and aggregate accounting would
// double-count.
func Unprotect(att *machine.Attached) {
	for _, ip := range att.Interposers() {
		if chk, ok := ip.(*checker.Checker); ok {
			chk.Close()
		}
	}
	att.ClearInterposers()
}

// NewSharedChecker seals the specification once for concurrent
// enforcement across guest sessions. Options fix the configuration every
// session inherits (mode, strategies, budget).
func NewSharedChecker(spec *core.Spec, opts ...checker.Option) *SharedChecker {
	return checker.NewShared(spec, opts...)
}

// ProtectShared attaches a per-session ES-Checker drawn from a shared
// engine to the device's I/O path. The session checker shares the
// engine's immutable sealed specification and recycles pooled scratch;
// its shadow state is initialized from this attachment's device control
// structure. Each attachment lives on its own machine (or session), so N
// ProtectShared attachments may be driven concurrently.
func ProtectShared(att *machine.Attached, sh *SharedChecker, opts ...checker.Option) *checker.Checker {
	base := []checker.Option{
		checker.WithEnv(att),
		checker.WithHalt(att.Machine().Halt),
		checker.WithClock(att.Machine().Clock),
		checker.WithSessionID(att.SessionID()),
	}
	chk := sh.NewSession(att.Dev().State(), append(base, opts...)...)
	att.AddInterposer(chk)
	return chk
}
