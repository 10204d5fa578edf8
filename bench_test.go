// Benchmarks regenerating the paper's tables and figures (one Benchmark
// per experiment; see DESIGN.md's per-experiment index), plus
// micro-benchmarks of the pipeline stages and the ablations of DESIGN.md
// §4. Run with:
//
//	go test -bench=. -benchmem
package sedspec_test

import (
	"io"
	"testing"
	"time"

	"sedspec"
	"sedspec/internal/bench"
	"sedspec/internal/checker"
	"sedspec/internal/cvesim"
	"sedspec/internal/devices/fdc"
	"sedspec/internal/itccfg"
	"sedspec/internal/machine"
	"sedspec/internal/simclock"
	"sedspec/internal/trace"
	"sedspec/internal/workload"
)

// BenchmarkTable1ParamSelection regenerates Table I (device-state
// parameter selection across the five devices).
func BenchmarkTable1ParamSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table1(true)
		if err != nil {
			b.Fatal(err)
		}
		bench.WriteTable1(io.Discard, rows)
	}
}

// BenchmarkTable2FalsePositives regenerates Table II (false positives over
// simulated hours) at a reduced scale per iteration.
func BenchmarkTable2FalsePositives(b *testing.B) {
	cfg := bench.DefaultFPConfig()
	cfg.Hours = []int{1}
	cfg.RarePerCase *= 10
	target := workload.TargetByName("fdc", true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table2(target, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Detection regenerates Table III's detection matrix (all
// nine case studies, three strategies each).
func BenchmarkTable3Detection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table3Detection()
		if err != nil {
			b.Fatal(err)
		}
		bench.WriteTable3(io.Discard, rows, nil, nil)
	}
}

// BenchmarkTable3Coverage regenerates Table III's effective-coverage
// column for one device.
func BenchmarkTable3Coverage(b *testing.B) {
	target := workload.TargetByName("scsi", true)
	for i := 0; i < b.N; i++ {
		if _, err := bench.EffectiveCoverage(target, 400, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3Throughput regenerates a Figure 3 data point (normalized
// storage throughput, SDHCI, 64 KiB blocks).
func BenchmarkFigure3Throughput(b *testing.B) {
	target := workload.TargetByName("sdhci", true)
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure34(target, []int{64}, 2, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4Latency regenerates a Figure 4 data point (normalized
// storage latency, SCSI, 4 KiB blocks).
func BenchmarkFigure4Latency(b *testing.B) {
	target := workload.TargetByName("scsi", true)
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure34(target, []int{4}, 1, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5Network regenerates Figure 5 (PCNet bandwidth series and
// ping latency) at a reduced frame count.
func BenchmarkFigure5Network(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure5(100); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablations (DESIGN.md §4) ---

// BenchmarkAblationReduction measures spec size and simulated steps with
// control-flow reduction on vs off.
func BenchmarkAblationReduction(b *testing.B) {
	target := workload.TargetByName("fdc", true)
	for i := 0; i < b.N; i++ {
		row, err := bench.AblationReduction(target, 60)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(row.BlocksReduced), "blocks-reduced")
		b.ReportMetric(float64(row.BlocksUnreduced), "blocks-unreduced")
	}
}

// BenchmarkAblationFilters measures trace packet volume with the paper's
// IPT filters on vs off.
func BenchmarkAblationFilters(b *testing.B) {
	target := workload.TargetByName("fdc", true)
	for i := 0; i < b.N; i++ {
		row, err := bench.AblationFilters(target)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(row.PacketsFiltered), "pkts-filtered")
		b.ReportMetric(float64(row.PacketsUnfiltered), "pkts-unfiltered")
	}
}

// BenchmarkAblationAccessControl measures checker effort with the command
// access table on vs off.
func BenchmarkAblationAccessControl(b *testing.B) {
	target := workload.TargetByName("sdhci", true)
	for i := 0; i < b.N; i++ {
		withAC, withoutAC, err := bench.AblationAccessSteps(target, 60)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(withAC), "steps-ac")
		b.ReportMetric(float64(withoutAC), "steps-noac")
	}
}

// --- pipeline micro-benchmarks ---

func fdcSetup(b *testing.B) (*machine.Machine, *machine.Attached) {
	b.Helper()
	m := machine.New(machine.WithMemory(1 << 20))
	dev := fdc.New(fdc.Options{})
	att := m.Attach(dev, machine.WithPIO(0, fdc.PortCount))
	return m, att
}

// BenchmarkLearnSpec measures end-to-end specification construction
// (trace, decode, analyze, observe, build) for the FDC.
func BenchmarkLearnSpec(b *testing.B) {
	_, att := fdcSetup(b)
	train := func(d *sedspec.Driver) error {
		return workload.TrainFDC(d, workload.TrainConfig{Light: true})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sedspec.Learn(att, train); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckerRound measures per-I/O checker simulation cost (the
// runtime-protection hot path) against the raw unprotected dispatch. The
// two variants interleave within one loop so CPU frequency drift on shared
// hardware cannot skew the comparison; the reported metric is the
// protected/baseline time ratio.
func BenchmarkCheckerRound(b *testing.B) {
	mk := func(protect bool) *fdc.Guest {
		_, att := fdcSetup(b)
		if protect {
			spec, err := sedspec.Learn(att, func(d *sedspec.Driver) error {
				return workload.TrainFDC(d, workload.TrainConfig{Light: true})
			})
			if err != nil {
				b.Fatal(err)
			}
			sedspec.Protect(att, spec, checker.WithMode(checker.ModeEnhancement))
		}
		g := fdc.NewGuest(sedspec.NewDriver(att))
		if err := g.Reset(); err != nil {
			b.Fatal(err)
		}
		return g
	}
	base, prot := mk(false), mk(true)

	var baseNS, protNS int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := base.MSR(); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		if _, err := prot.MSR(); err != nil {
			b.Fatal(err)
		}
		t2 := time.Now()
		baseNS += t1.Sub(t0).Nanoseconds()
		protNS += t2.Sub(t1).Nanoseconds()
	}
	if baseNS > 0 {
		b.ReportMetric(float64(protNS)/float64(baseNS), "prot/base")
		b.ReportMetric(float64(baseNS)/float64(b.N), "base-ns/round")
		b.ReportMetric(float64(protNS)/float64(b.N), "prot-ns/round")
	}
}

// BenchmarkTraceDecode measures IPT packet decoding and ITC-CFG
// construction throughput.
func BenchmarkTraceDecode(b *testing.B) {
	_, att := fdcSetup(b)
	prog := att.Dev().Program()
	col := trace.NewCollector(trace.DeviceConfig(prog))
	att.Interp().SetTracer(col)
	if err := workload.TrainFDC(sedspec.NewDriver(att), workload.TrainConfig{Light: true}); err != nil {
		b.Fatal(err)
	}
	att.Interp().SetTracer(nil)
	pkts := col.Packets()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs, err := trace.Decode(prog, pkts)
		if err != nil {
			b.Fatal(err)
		}
		g := itccfg.New(prog)
		for _, r := range runs {
			g.AddRun(r)
		}
	}
	b.ReportMetric(float64(len(pkts)), "packets")
}

// BenchmarkExploitReplay measures a full protected exploit replay (learn +
// attack) for the Venom case study.
func BenchmarkExploitReplay(b *testing.B) {
	poc := cvesim.ByCVE("CVE-2015-3456")
	for i := 0; i < b.N; i++ {
		if _, err := poc.RunProtected(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeviceDispatch measures raw emulated-device dispatch throughput
// (no checker) across the five devices' benign op mixes.
func BenchmarkDeviceDispatch(b *testing.B) {
	for _, target := range workload.Targets(true) {
		target := target
		b.Run(target.Name, func(b *testing.B) {
			m := machine.New(machine.WithMemory(1 << 20))
			dev, opts := target.Build()
			att := m.Attach(dev, opts...)
			rng := simclock.NewRand(5)
			s := target.NewSession(sedspec.NewDriver(att), rng)
			if err := s.Prepare(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Op(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkComparisonNioh regenerates the SEDSpec-vs-Nioh comparison table
// (all nine case studies under both systems).
func BenchmarkComparisonNioh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.ComparisonNioh()
		if err != nil {
			b.Fatal(err)
		}
		bench.WriteComparison(io.Discard, rows)
	}
}
