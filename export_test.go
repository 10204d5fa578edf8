package sedspec

import (
	"fmt"
	"reflect"

	"sedspec/internal/analysis"
	"sedspec/internal/checker"
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

// CompiledFootprint exports the retained-memory walker to the external
// test package.
var CompiledFootprint = compiledFootprint

// Footprint is the slice memory a compiled spec keeps alive.
type Footprint struct {
	// Bytes is the total backing-array capacity, in bytes, of every
	// slice reachable from the compiled spec. Each array counts once.
	Bytes int
	// ByElem splits Bytes by slice element type.
	ByElem map[reflect.Type]int
	// Specs counts the learned specs (*core.Spec) reachable from the
	// compiled spec; their slices count in Bytes too.
	Specs int
}

// compiledFootprint walks everything a checker.Compiled references and
// sums slice capacities. It stops only at the device program (and
// pointers into it), which the compiled form shares with every other
// compiled spec of the same device and with every device instance.
func compiledFootprint(cv *checker.Compiled) Footprint {
	fp := Footprint{ByElem: map[reflect.Type]int{}}
	ptrs := map[uintptr]bool{}
	arrays := map[uintptr]bool{}
	specType := reflect.TypeOf(core.Spec{})
	irPkg := reflect.TypeOf(core.ESBlock{}.Ref).PkgPath()
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() {
				return
			}
			el := v.Type().Elem()
			if el.PkgPath() == irPkg || ptrs[v.Pointer()] {
				return
			}
			ptrs[v.Pointer()] = true
			if el == specType {
				fp.Specs++
			}
			walk(v.Elem())
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Slice:
			if v.IsNil() || arrays[v.Pointer()] {
				return
			}
			arrays[v.Pointer()] = true
			n := v.Cap() * int(v.Type().Elem().Size())
			fp.Bytes += n
			fp.ByElem[v.Type().Elem()] += n
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Map:
			it := v.MapRange()
			for it.Next() {
				walk(it.Key())
				walk(it.Value())
			}
		}
	}
	walk(reflect.ValueOf(cv))
	return fp
}
