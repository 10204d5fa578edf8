package stream

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"strconv"
	"strings"

	"sedspec/internal/obs"
)

// escapeLabel escapes a label value per the Prometheus text exposition
// format: backslash, double-quote, and newline.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// promWriter accumulates one exposition document, emitting each
// family's HELP/TYPE header once.
type promWriter struct {
	w   *bufio.Writer
	err error
}

func (p *promWriter) family(name, help, typ string) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p *promWriter) sample(name string, labels [][2]string, v float64) {
	if p.err != nil {
		return
	}
	var sb strings.Builder
	sb.WriteString(name)
	if len(labels) > 0 {
		sb.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, `%s="%s"`, l[0], escapeLabel(l[1]))
		}
		sb.WriteByte('}')
	}
	var val string
	switch {
	case math.IsInf(v, 1):
		val = "+Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		val = strconv.FormatFloat(v, 'f', -1, 64)
	default:
		val = strconv.FormatFloat(v, 'g', -1, 64)
	}
	_, p.err = fmt.Fprintf(p.w, "%s %s\n", sb.String(), val)
}

// histogram emits a Hist as a cumulative Prometheus histogram. Bucket
// i's upper bound is 2^i (every value in the bucket is strictly below
// it), the top bucket maps to +Inf, and the _sum is estimated from
// bucket midpoints — a documented approximation inherent to log2
// bucketing, consistent with the factor-<2 quantile bound.
func (p *promWriter) histogram(name string, labels [][2]string, h *obs.Hist) {
	var cum uint64
	var sum float64
	lbls := func(le string) [][2]string {
		out := make([][2]string, len(labels), len(labels)+1)
		copy(out, labels)
		return append(out, [2]string{"le", le})
	}
	for i, b := range h.Buckets {
		cum += b
		switch {
		case i == 0:
		case i == 1:
			sum += float64(b)
		default:
			sum += float64(b) * 1.5 * float64(uint64(1)<<(i-1))
		}
		if i == obs.NumBuckets-1 {
			p.sample(name+"_bucket", lbls("+Inf"), float64(cum))
		} else {
			p.sample(name+"_bucket", lbls(strconv.FormatUint(uint64(1)<<i, 10)), float64(cum))
		}
	}
	p.sample(name+"_sum", labels, sum)
	p.sample(name+"_count", labels, float64(cum))
}

// rowLabels labels a (tenant, device) row's series: tenant-owned rows
// get a tenant label so the same device hosted by two tenants never
// collides on a label set.
func rowLabels(tenant, device string) [][2]string {
	lbl := [][2]string{{"device", device}}
	if tenant != "" {
		lbl = append(lbl, [2]string{"tenant", tenant})
	}
	return lbl
}

// WriteExposition renders the fleet snapshot and metrics registry
// snapshot as a Prometheus text-format (version 0.0.4) document.
func WriteExposition(w io.Writer, fleet *FleetSnapshot, snap obs.Snapshot) error {
	p := &promWriter{w: bufio.NewWriter(w)}

	b := fleet.Build
	p.family("sedspec_build_info", "Build identity of the reporting binary (value is always 1).", "gauge")
	p.sample("sedspec_build_info", [][2]string{
		{"go_version", b.GoVersion},
		{"version", b.Version},
		{"revision", b.Revision},
	}, 1)

	p.family("sedspec_uptime_seconds", "Seconds since the health aggregator started.", "gauge")
	p.sample("sedspec_uptime_seconds", nil, fleet.UptimeSec)

	p.family("sedspec_rounds_total", "Checked I/O rounds per device.", "counter")
	for _, m := range snap.Devices {
		p.sample("sedspec_rounds_total", rowLabels(m.Tenant, m.Device), float64(m.Rounds))
	}

	p.family("sedspec_anomalies_total", "Anomalous rounds per device, strategy, and verdict.", "counter")
	for _, m := range snap.Devices {
		for s := 1; s < obs.NumStrategies; s++ {
			for v := 0; v < obs.NumVerdicts; v++ {
				if n := m.Outcomes[s][v]; n != 0 {
					p.sample("sedspec_anomalies_total", append(rowLabels(m.Tenant, m.Device),
						[2]string{"strategy", obs.StrategyName(uint8(s))},
						[2]string{"verdict", obs.Verdict(v).String()},
					), float64(n))
				}
			}
		}
	}

	p.family("sedspec_swaps_total", "Spec hot-swaps applied per device.", "counter")
	for _, d := range fleet.Devices {
		if d.Swaps != 0 {
			p.sample("sedspec_swaps_total", rowLabels(d.Tenant, d.Device), float64(d.Swaps))
		}
	}

	p.family("sedspec_sessions", "Open enforcement sessions per device.", "gauge")
	p.family("sedspec_generation", "Current spec generation per device.", "gauge")
	for _, d := range fleet.Devices {
		lbl := rowLabels(d.Tenant, d.Device)
		p.sample("sedspec_sessions", lbl, float64(d.Sessions))
		p.sample("sedspec_generation", lbl, float64(d.Generation))
	}

	p.family("sedspec_coverage_blocks_covered", "ES-CFG blocks covered at runtime, current generation.", "gauge")
	p.family("sedspec_coverage_blocks_total", "ES-CFG blocks in the current sealed spec.", "gauge")
	p.family("sedspec_coverage_edges_covered", "ES-CFG edges covered at runtime, current generation.", "gauge")
	p.family("sedspec_coverage_edges_total", "ES-CFG edges in the current sealed spec.", "gauge")
	for _, d := range fleet.Devices {
		if d.Coverage == nil {
			continue
		}
		lbl := rowLabels(d.Tenant, d.Device)
		p.sample("sedspec_coverage_blocks_covered", lbl, float64(d.Coverage.BlocksCovered))
		p.sample("sedspec_coverage_blocks_total", lbl, float64(d.Coverage.TotalBlocks))
		p.sample("sedspec_coverage_edges_covered", lbl, float64(d.Coverage.EdgesCovered))
		p.sample("sedspec_coverage_edges_total", lbl, float64(d.Coverage.TotalEdges))
	}

	p.family("sedspec_steps", "Simulation steps per checked round (log2 buckets; _sum estimated from bucket midpoints).", "histogram")
	for i := range snap.Devices {
		m := &snap.Devices[i]
		p.histogram("sedspec_steps", rowLabels(m.Tenant, m.Device), &m.Steps)
	}

	p.family("sedspec_stream_published_total", "Telemetry events published into the hub, by kind.", "counter")
	p.family("sedspec_stream_dropped_total", "Telemetry events dropped by lagging subscribers, by kind.", "counter")
	for k := 0; k < NumKinds; k++ {
		name := Kind(k).String()
		if n := fleet.Stream.Published[name]; n != 0 {
			p.sample("sedspec_stream_published_total", [][2]string{{"kind", name}}, float64(n))
		}
		if n := fleet.Stream.Dropped[name]; n != 0 {
			p.sample("sedspec_stream_dropped_total", [][2]string{{"kind", name}}, float64(n))
		}
	}
	p.family("sedspec_stream_subscribers", "Live hub subscribers.", "gauge")
	p.sample("sedspec_stream_subscribers", nil, float64(fleet.Stream.Subscribers))

	if j := fleet.Journal; j != nil {
		p.family("sedspec_journal_segments", "On-disk journal segment files.", "gauge")
		p.sample("sedspec_journal_segments", nil, float64(j.Segments))
		p.family("sedspec_journal_bytes", "Total journal bytes on disk.", "gauge")
		p.sample("sedspec_journal_bytes", nil, float64(j.Bytes))
		p.family("sedspec_journal_records_total", "Records retained in the journal.", "counter")
		p.sample("sedspec_journal_records_total", nil, float64(j.Records))
		p.family("sedspec_journal_dropped_total", "Events shed by the journal's hub subscription before reaching disk.", "counter")
		p.sample("sedspec_journal_dropped_total", nil, float64(j.Dropped))
		p.family("sedspec_journal_truncations_total", "Torn-tail truncations repaired at journal open.", "counter")
		p.sample("sedspec_journal_truncations_total", nil, float64(j.Truncations))
		p.family("sedspec_journal_fsyncs_total", "Journal fsync calls.", "counter")
		p.sample("sedspec_journal_fsyncs_total", nil, float64(j.Fsyncs))
		p.family("sedspec_journal_fsync_p99_microseconds", "p99 journal fsync latency, interpolated from log2 buckets.", "gauge")
		p.sample("sedspec_journal_fsync_p99_microseconds", nil, j.FsyncP99Us)
		p.family("sedspec_journal_last_seq", "Highest hub sequence number persisted.", "gauge")
		p.sample("sedspec_journal_last_seq", nil, float64(j.LastSeq))
	}

	if p.err != nil {
		return p.err
	}
	return p.w.Flush()
}

var (
	promHelpRe   = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .*$`)
	promTypeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	promSampleRe = regexp.MustCompile(
		`^([a-zA-Z_:][a-zA-Z0-9_:]*)` + // metric name
			`(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?` + // labels
			` (NaN|[+-]?Inf|[+-]?[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)` + // value
			`( [+-]?[0-9]+)?$`) // optional timestamp
)

// baseFamily strips the histogram/summary series suffixes so a sample
// maps back to its declared family.
func baseFamily(name string, typed map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name {
			if t := typed[base]; t == "histogram" || t == "summary" {
				return base
			}
		}
	}
	return name
}

// ValidateExposition checks a document against the Prometheus text
// exposition-format grammar (version 0.0.4): line shapes, label
// syntax, at most one TYPE per family declared before its samples,
// histogram series carrying le labels with a +Inf bucket whose
// cumulative count equals _count. It returns the first violation.
func ValidateExposition(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	typed := make(map[string]string) // family -> declared type
	sampled := make(map[string]bool) // family -> sample seen
	infCount := make(map[string]float64)
	cntCount := make(map[string]float64)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if m := promTypeRe.FindStringSubmatch(line); m != nil {
				name := m[1]
				if _, dup := typed[name]; dup {
					return fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
				}
				if sampled[name] {
					return fmt.Errorf("line %d: TYPE for %s after its samples", lineNo, name)
				}
				typed[name] = m[2]
				continue
			}
			if promHelpRe.MatchString(line) || strings.HasPrefix(line, "# ") {
				continue
			}
			return fmt.Errorf("line %d: malformed comment line %q", lineNo, line)
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			return fmt.Errorf("line %d: malformed sample line %q", lineNo, line)
		}
		name, labels, valStr := m[1], m[2], m[3]
		fam := baseFamily(name, typed)
		sampled[fam] = true
		if typed[fam] == "histogram" {
			switch {
			case strings.HasSuffix(name, "_bucket"):
				if !strings.Contains(labels, `le="`) {
					return fmt.Errorf("line %d: histogram bucket %s missing le label", lineNo, name)
				}
				if strings.Contains(labels, `le="+Inf"`) {
					v, err := strconv.ParseFloat(valStr, 64)
					if err != nil {
						return fmt.Errorf("line %d: bad +Inf bucket value: %v", lineNo, err)
					}
					infCount[fam] += v
				}
			case strings.HasSuffix(name, "_count"):
				v, err := strconv.ParseFloat(valStr, 64)
				if err != nil {
					return fmt.Errorf("line %d: bad _count value: %v", lineNo, err)
				}
				cntCount[fam] += v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for fam, t := range typed {
		if t != "histogram" || !sampled[fam] {
			continue
		}
		inf, cnt := infCount[fam], cntCount[fam]
		if inf != cnt {
			return fmt.Errorf("histogram %s: +Inf bucket total %v != _count total %v", fam, inf, cnt)
		}
	}
	return nil
}
