package sedspec

import (
	"fmt"

	"sedspec/internal/analysis"
	"sedspec/internal/core"
	"sedspec/internal/itccfg"
	"sedspec/internal/machine"
	"sedspec/internal/trace"
)

// TwoPassLearn exports the test oracle to the external test package.
var TwoPassLearn = twoPassLearn

// twoPassLearn is the paper's learning procedure taken literally, kept as
// the oracle LearnFull is checked against: a traced run of the training
// samples, ITC-CFG construction and parameter selection, then a second
// run with only the selected parameters watched, whose log builds the
// spec.
func twoPassLearn(att *machine.Attached, train TrainFunc) (*LearnResult, error) {
	dev := att.Dev()
	prog := dev.Program()
	in := att.Interp()

	// Phase 1a: processor-trace collection under training samples.
	dev.Reset()
	col := trace.NewCollector(trace.DeviceConfig(prog))
	in.SetTracer(col)
	err := train(&Driver{att: att})
	in.SetTracer(nil)
	if err != nil {
		return nil, fmt.Errorf("trace pass: %w", err)
	}

	// Phase 1b: ITC-CFG construction and parameter selection.
	runs, err := trace.Decode(prog, col.Packets())
	if err != nil {
		return nil, fmt.Errorf("decode trace: %w", err)
	}
	graph := itccfg.New(prog)
	for _, run := range runs {
		graph.AddRun(run)
	}
	params := analysis.SelectParams(graph)

	// Phase 1c: observation run producing the device-state-change log.
	dev.Reset()
	rec := analysis.NewRecorder(prog.Name)
	in.SetObserver(rec)
	in.SetWatch(params.WatchList())
	err = train(&Driver{att: att, rec: rec})
	in.SetObserver(nil)
	in.SetWatch(nil)
	if err != nil {
		return nil, fmt.Errorf("observation pass: %w", err)
	}

	// Phase 2: ES-CFG construction.
	spec, err := core.Build(prog, params, rec.Log())
	if err != nil {
		return nil, fmt.Errorf("build spec: %w", err)
	}
	dev.Reset()
	return &LearnResult{
		Spec:   spec,
		Params: params,
		Graph:  graph,
		Log:    rec.Log(),
		Trace:  col.Stats(),
	}, nil
}
