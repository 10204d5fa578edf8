package sedspec

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"reflect"

	"sedspec/internal/analysis"
	"sedspec/internal/checker"
	"sedspec/internal/core"
	"sedspec/internal/ir"
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

// CheckpointRetained walks everything a checkpoint references, except
// the device program it shares with every instance of the device, and
// returns the bytes it keeps alive (pointees, slice backing arrays and
// map entries, each counted once) and a digest of their contents.
func CheckpointRetained(cp *Checkpoint) (bytes int, digest [sha256.Size]byte) {
	h := sha256.New()
	var word [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(word[:], x)
		h.Write(word[:])
	}
	seen := map[uintptr]bool{}
	irPkg := reflect.TypeOf(ir.Program{}).PkgPath()
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Bool:
			if v.Bool() {
				put(1)
			} else {
				put(0)
			}
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			put(uint64(v.Int()))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			put(v.Uint())
		case reflect.String:
			put(uint64(v.Len()))
			h.Write([]byte(v.String()))
			bytes += v.Len()
		case reflect.Pointer:
			if v.IsNil() || v.Type().Elem().PkgPath() == irPkg {
				put(0)
				return
			}
			put(1)
			if seen[v.Pointer()] {
				return
			}
			seen[v.Pointer()] = true
			bytes += int(v.Type().Elem().Size())
			walk(v.Elem())
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Array, reflect.Slice:
			put(uint64(v.Len()))
			if v.Kind() == reflect.Slice && v.Cap() > 0 && !seen[v.Pointer()] {
				seen[v.Pointer()] = true
				bytes += v.Cap() * int(v.Type().Elem().Size())
			}
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Map:
			put(uint64(v.Len()))
			bytes += v.Len() * int(v.Type().Key().Size()+v.Type().Elem().Size())
			var sum [sha256.Size]byte
			for it := v.MapRange(); it.Next(); {
				// Entries digest one by one, so the map digests the same
				// in any iteration order; they hold only scalars.
				e := sha256.Sum256([]byte(fmt.Sprint(it.Key(), "=", it.Value())))
				for i := range sum {
					sum[i] ^= e[i]
				}
			}
			h.Write(sum[:])
		}
	}
	walk(reflect.ValueOf(cp))
	copy(digest[:], h.Sum(nil))
	return bytes, digest
}
