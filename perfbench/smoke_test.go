package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runOnce runs one workload on a tiny budget and parses the last line
// of what the command prints.
func runOnce(t *testing.T, name string, traced bool) output {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	e := &env{root: root, scratch: filepath.Join(root, "perfbench", ".cache", "smoke-"+name), seed: 7, workers: 2}
	defer os.RemoveAll(e.scratch)
	res, err := benchmark(e, name, time.Duration(smokeBudget), traced)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var buf bytes.Buffer
	res.print(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", name, err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d\n%s", name, out.Correct, out.Attempted, out.Failed, buf.String())
	}
	return out
}

func checkMetrics(t *testing.T, label string, got map[string]metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s not printed", label, m.Name)
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", label, m.Name, g.Unit, m.Unit)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: printed %d metrics, BENCHMARK.json lists %d", label, len(got), len(want))
	}
}

// TestSmoke runs every workload untraced, and one traced run (which
// drives all three workloads), on a tiny budget: every metric named in
// BENCHMARK.json must print with its unit, end-to-end figures must be
// nonzero, and no operation may fail.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	s := loadSpec(t)
	for _, name := range workloadNames {
		out := runOnce(t, name, false)
		checkMetrics(t, name, out.Metrics, s.EndToEnd)
		for metric, m := range out.Metrics {
			if m.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", name, metric)
			}
		}
	}
	out := runOnce(t, workloadNames[0], true)
	checkMetrics(t, workloadNames[0]+" traced", out.Metrics, s.PerLayer)
	for name, want := range map[string]float64{
		"checker.rounds_per_io": 1,
		"checker.allocs_per_io": 0,
		"stream.dropped":        0,
		"journal.dropped":       0,
	} {
		if got := out.Metrics[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestDeterministicCounts checks the exact counts the tripwire
// compares: two set-ups from one seed, one measured with concurrent
// load and one not, must give identical rounds and simulated time per
// guest op, and identical simulation steps per checked I/O.
func TestDeterministicCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	e := &env{root: root, scratch: filepath.Join(root, "perfbench", ".cache", "smoke-exact"), seed: 7, workers: 2}
	defer os.RemoveAll(e.scratch)
	for _, name := range []string{"guest-io", "check-replay"} {
		w, _, ref, err := setUp(e, name, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p, err := w.run(time.Duration(smokeBudget), false)
		if err == nil {
			err = checkExact(p, w, ref)
		}
		w.close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(ref) == 0 || p.failed != 0 {
			t.Errorf("%s: exact counts %v, failed %d: %v", name, ref, p.failed, p.errs)
		}
	}
}

// fixedCounts is a workload stub whose exact counts are given.
type fixedCounts struct {
	bench
	counts []float64
}

func (f fixedCounts) exact() ([]float64, error) { return f.counts, nil }

// TestExactTripwire checks that every differing exact count is a failed
// operation.
func TestExactTripwire(t *testing.T) {
	for _, c := range []struct {
		got, ref []float64
		failed   int
	}{
		{[]float64{28.3, 79.7}, []float64{28.3, 79.7}, 0},
		{[]float64{28.3, 79.8}, []float64{28.3, 79.7}, 1},
		{[]float64{28.3}, []float64{28.4, 79.7}, 2},
		{nil, nil, 0},
	} {
		p := newPhase("stub", false)
		if err := checkExact(p, fixedCounts{counts: c.got}, c.ref); err != nil {
			t.Fatal(err)
		}
		if p.failed != c.failed {
			t.Errorf("got %v, ref %v: failed %d, want %d", c.got, c.ref, p.failed, c.failed)
		}
	}
}
