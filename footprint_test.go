// Retained-memory bound for compiled specs: a daemon keeps one
// checker.Compiled per recipe resident for its whole life, so each must
// hold one executable form of its spec and nothing the check path no
// longer reads.
package sedspec_test

import (
	"reflect"
	"testing"

	"sedspec"
	"sedspec/internal/checker"
	"sedspec/internal/core"
	"sedspec/internal/cvesim"
	"sedspec/internal/ir"
	"sedspec/internal/machine"
	"sedspec/internal/workload"
)

// maxCompiledBytes bounds the slice capacity one compiled spec retains.
const maxCompiledBytes = 50_000

// maxHotInstr bounds the threaded engine's dispatched instruction record.
const maxHotInstr = 96

// corpus is one install recipe: its name and a fresh learn of its spec.
type corpus struct {
	name  string
	learn func() (*core.Spec, error)
}

// daemonCorpora returns the daemon's install recipes: the benign light
// corpus of each of the five devices and each PoC's training corpus.
func daemonCorpora() []corpus {
	learn := func(build machine.BuildFunc, train sedspec.TrainFunc) func() (*core.Spec, error) {
		return func() (*core.Spec, error) {
			dev, opts := build()
			return sedspec.Learn(machine.New(machine.WithMemory(1<<20)).Attach(dev, opts...), train)
		}
	}
	var corpora []corpus
	for _, tg := range workload.Targets(true) {
		corpora = append(corpora, corpus{tg.Name + "/benign", learn(tg.Build, tg.Train)})
	}
	for _, p := range cvesim.All() {
		corpora = append(corpora, corpus{p.Device + "/cve:" + p.CVE, learn(p.Build, p.Train)})
	}
	return corpora
}

// hotInstrType digs the threaded stream's element type out of
// checker.Compiled.
func hotInstrType(t *testing.T) reflect.Type {
	t.Helper()
	tp, ok := reflect.TypeOf(checker.Compiled{}).FieldByName("tprog")
	if !ok {
		t.Fatal("checker.Compiled has no tprog field; update hotInstrType")
	}
	code, ok := tp.Type.Elem().FieldByName("code")
	if !ok {
		t.Fatal("threaded program has no code field; update hotInstrType")
	}
	return code.Type.Elem()
}

// holdsOps reports whether a slice element type stores ir.Op by value:
// a copy of the program's op stream.
func holdsOps(el reflect.Type) bool {
	op := reflect.TypeOf(ir.Op{})
	if el == op {
		return true
	}
	if el.Kind() != reflect.Struct {
		return false
	}
	for i := 0; i < el.NumField(); i++ {
		if el.Field(i).Type == op {
			return true
		}
	}
	return false
}

func TestCompiledFootprint(t *testing.T) {
	hot := hotInstrType(t)
	if hot.Size() > maxHotInstr {
		t.Errorf("threaded instruction %v is %d B, want <= %d", hot, hot.Size(), maxHotInstr)
	}
	corpora := daemonCorpora()
	if len(corpora) != 14 {
		t.Fatalf("%d daemon corpora, want 14", len(corpora))
	}
	for _, c := range corpora {
		name := c.name
		spec, err := c.learn()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fp := sedspec.CompiledFootprint(checker.Compile(spec))
		t.Logf("%-24s %7d B retained", name, fp.Bytes)
		if fp.Specs != 0 {
			t.Errorf("%s: %d learned spec(s) reachable from the compiled spec", name, fp.Specs)
		}
		if fp.Bytes > maxCompiledBytes {
			t.Errorf("%s: compiled spec retains %d B of slices, want <= %d; by element type: %v",
				name, fp.Bytes, maxCompiledBytes, fp.ByElem)
		}
		for el, n := range fp.ByElem {
			if el == reflect.TypeOf(core.TOp{}) {
				t.Errorf("%s: a %d B lowered TOp stream survives Compile", name, n)
			}
			if holdsOps(el) {
				t.Errorf("%s: a %d B op arena of %v survives Compile", name, n, el)
			}
		}
	}
}
