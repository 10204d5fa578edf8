package stream

import (
	"bufio"
	"bytes"
	"strings"
	"testing"

	"sedspec/internal/obs"
)

// exposition renders a populated registry + fleet snapshot.
func exposition(t *testing.T) string {
	t.Helper()
	reg := obs.NewRegistry()
	feed(reg, "fdc", 300)
	hub := NewHub()
	sub := hub.Subscribe(WithBuffer(2))
	defer sub.Close()
	for i := 0; i < 5; i++ {
		hub.Publish(Event{Kind: KindAnomaly, Device: "fdc"})
	}
	h := NewHealth(reg, hub)
	h.AddEngine(func() EngineStatus {
		return EngineStatus{
			Device: "fdc", Generation: 2, Sessions: 1, Swaps: 1,
			Coverage: &GenCoverage{Generation: 2, BlocksCovered: 4, TotalBlocks: 8, EdgesCovered: 2, TotalEdges: 6},
		}
	})
	var buf bytes.Buffer
	if err := WriteExposition(&buf, h.Snapshot(), reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestExpositionValidates: the document WriteExposition produces passes
// its own grammar checker and carries the expected families.
func TestExpositionValidates(t *testing.T) {
	doc := exposition(t)
	if err := ValidateExposition(strings.NewReader(doc)); err != nil {
		t.Fatalf("self-validation failed: %v\n%s", err, doc)
	}
	for _, want := range []string{
		"# TYPE sedspec_build_info gauge",
		"# TYPE sedspec_rounds_total counter",
		`sedspec_rounds_total{device="fdc"} 302`,
		`sedspec_anomalies_total{device="fdc",strategy="parameter-check",verdict="blocked"} 1`,
		"# TYPE sedspec_steps histogram",
		`sedspec_steps_bucket{device="fdc",le="+Inf"}`,
		`sedspec_coverage_blocks_covered{device="fdc"} 4`,
		`sedspec_swaps_total{device="fdc"} 1`,
		`sedspec_stream_published_total{kind="anomaly"} 5`,
		`sedspec_stream_dropped_total{kind="anomaly"} 3`,
		"sedspec_stream_subscribers 1",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(doc, "sedspec_latency") {
		t.Error("exposition still carries a latency family")
	}
}

// TestExpositionLabelEscaping: label values with quotes, backslashes,
// and newlines stay inside the grammar.
func TestExpositionLabelEscaping(t *testing.T) {
	var buf bytes.Buffer
	p := &promWriter{w: bufio.NewWriter(&buf)}
	p.family("x_total", "test", "counter")
	p.sample("x_total", [][2]string{{"device", "a\"b\\c\nd"}}, 1)
	if p.err != nil {
		t.Fatal(p.err)
	}
	if err := p.w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(&buf); err != nil {
		t.Fatalf("escaped labels rejected: %v", err)
	}
}

// TestValidateExpositionRejects: each grammar violation is caught.
func TestValidateExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"malformed sample": "foo{bad} 1\n",
		"duplicate TYPE":   "# TYPE a counter\n# TYPE a counter\na 1\n",
		"TYPE after samples": "# TYPE a counter\na 1\n" +
			"b 1\n# TYPE b counter\n",
		"bucket missing le": "# TYPE h histogram\nh_bucket 1\nh_count 1\nh_sum 1\n",
		"inf != count": "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 3` + "\nh_count 4\nh_sum 9\n",
		"bad value":   "a one\n",
		"bad comment": "#TYPE a counter\n",
	}
	for name, doc := range cases {
		if err := ValidateExposition(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted\n%s", name, doc)
		}
	}
	good := "# HELP a help text\n# TYPE a counter\n" +
		`a{x="y"} 1.5e3 1700000000` + "\n" +
		"# TYPE h histogram\n" +
		`h_bucket{le="1"} 2` + "\n" +
		`h_bucket{le="+Inf"} 3` + "\n" +
		"h_sum 4.5\nh_count 3\n"
	if err := ValidateExposition(strings.NewReader(good)); err != nil {
		t.Errorf("valid document rejected: %v", err)
	}
}
