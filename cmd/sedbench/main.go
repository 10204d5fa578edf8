// Command sedbench regenerates the tables and figures of the SEDSpec
// paper's evaluation against this repository's emulated-device substrate.
//
// Usage:
//
//	sedbench [-experiment all|table1|table2|table3|fig34|fig5|comparison|ablation|throughput]
//	         [-full] [-frames N] [-mib N]
//
// The throughput experiment measures, per device, how the cost of one
// checked I/O changes when 2, 4 and host-CPU-count sessions share one
// sealed spec instead of one session running alone (bench.ScalingRatio:
// the median over interleaved 1-vs-N chunk pairs of process CPU plus
// lock-wait time per checked I/O, GOMAXPROCS pinned to min(sessions,
// host CPUs)), on the per-round and the batched delivery path. The check
// loop must be allocation-free at steady state; a side whose best window
// allocates fails the experiment.
//
// An unknown -experiment name is an error that lists the valid names.
// Per-I/O check cost by device, steps and allocations per I/O, the
// coverage counters' price, batched delivery (checker.replay_batch_ns),
// spec-store loads (specstore.get_us) and hot-swap latency
// (daemon.swap_ms_p50) are perfbench's metrics.
//
// With -full, Table II runs the paper's 10/20/30 virtual hours (slow);
// otherwise a scaled-down 2/4/6-hour study with a proportionally raised
// rare-command rate preserves the regime.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"

	"sedspec/internal/bench"
	"sedspec/internal/cmdutil"
	"sedspec/internal/workload"
)

func main() {
	experiment := flag.String("experiment", "all", "which experiment to run")
	full := flag.Bool("full", false, "run Table II at the paper's full 10/20/30 hours")
	frames := flag.Int("frames", 600, "frames per Figure 5 bandwidth series")
	mib := flag.Int("mib", 8, "MiB per Figure 3/4 data point")
	listen := flag.String("listen", "", "serve the introspection endpoints (/healthz /fleet /metrics /journal /debug/pprof) on this address (profile live runs)")
	flag.Parse()

	cfg := runConfig{full: *full, frames: *frames, mib: *mib}
	if err := realMain(*experiment, cfg, *listen); err != nil {
		fmt.Fprintln(os.Stderr, "sedbench:", err)
		os.Exit(1)
	}
}

// realMain starts the introspection server when asked, then runs the
// experiments.
func realMain(experiment string, cfg runConfig, listenAddr string) error {
	if listenAddr != "" {
		if _, err := cmdutil.ServeIntrospection(listenAddr); err != nil {
			return fmt.Errorf("listen: %w", err)
		}
	}
	return run(experiment, cfg)
}

type runConfig struct {
	full        bool
	frames, mib int
}

// The throughput experiment's replay: benign session ops captured per
// device, timed rounds per session per chunk, and 1-vs-N chunk pairs per
// point.
const (
	scalingOps   = 40
	scalingIters = 5000
	scalingPairs = 11
)

// experiments lists the names -experiment accepts besides "all", in the
// order run executes them.
var experiments = []string{"table1", "table2", "table3", "fig34", "fig5", "comparison", "throughput", "ablation"}

func run(experiment string, cfg runConfig) error {
	if experiment != "all" && !slices.Contains(experiments, experiment) {
		return fmt.Errorf("unknown experiment %q (want all or one of %s)", experiment, strings.Join(experiments, ", "))
	}
	full, frames, mib := cfg.full, cfg.frames, cfg.mib
	w := os.Stdout
	want := func(name string) bool { return experiment == "all" || experiment == name }

	if want("table1") {
		rows, err := bench.Table1(true)
		if err != nil {
			return err
		}
		bench.WriteTable1(w, rows)
		fmt.Fprintln(w)
	}

	var fpr = map[string]float64{}
	if want("table2") || want("table3") {
		cfg := bench.DefaultFPConfig()
		if !full {
			cfg.Hours = []int{2, 4, 6}
			cfg.RarePerCase *= 5 // same expected counts in a fifth of the time
		}
		var rows []*bench.Table2Row
		for _, t := range workload.Targets(true) {
			row, err := bench.Table2(t, cfg)
			if err != nil {
				return err
			}
			rows = append(rows, row)
			fpr[t.Name] = row.FPR
		}
		if want("table2") {
			bench.WriteTable2(w, cfg.Hours, rows)
			if !full {
				fmt.Fprintln(w, "  (scaled study: hours x1/5, rare-command rate x5; pass -full for 10/20/30h)")
			}
			fmt.Fprintln(w)
		}
	}

	if want("table3") {
		rows, err := bench.Table3Detection()
		if err != nil {
			return err
		}
		cov := map[string]float64{}
		for _, t := range workload.Targets(true) {
			c, err := bench.EffectiveCoverage(t, 800, 3)
			if err != nil {
				return err
			}
			cov[t.Name] = c
		}
		bench.WriteTable3(w, rows, fpr, cov)
		fmt.Fprintln(w)
	}

	if want("fig34") {
		for _, name := range []string{"fdc", "ehci", "sdhci", "scsi"} {
			t := workload.TargetByName(name, true)
			blocks := []int{4, 64, 512, 2048}
			if name == "fdc" {
				blocks = []int{4, 64, 512, 1024} // 2.88MB medium cap
			}
			for _, write := range []bool{true, false} {
				points, err := bench.Figure34(t, blocks, mib, write)
				if err != nil {
					return err
				}
				bench.WriteFigure34(w, points)
			}
		}
		fmt.Fprintln(w)
	}

	if want("fig5") {
		points, err := bench.Figure5(frames)
		if err != nil {
			return err
		}
		bench.WriteFigure5(w, points)
		fmt.Fprintln(w)
	}

	if want("comparison") {
		rows, err := bench.ComparisonNioh()
		if err != nil {
			return err
		}
		bench.WriteComparison(w, rows)
		fmt.Fprintln(w)
	}

	if want("throughput") {
		// 2, 4 and the host's CPU count, each once.
		counts := []int{2, 4, max(runtime.NumCPU(), 2)}
		slices.Sort(counts)
		counts = slices.Compact(counts)
		fmt.Fprintf(w, "throughput: cost per checked I/O, N sessions on one shared spec vs one session alone\n"+
			"  (median of %d interleaved pairs, process CPU + lock wait per I/O)\n", scalingPairs)
		for _, t := range workload.Targets(true) {
			r, err := bench.NewCheckerReplay(t, scalingOps)
			if err != nil {
				return err
			}
			for _, bs := range []int{0, bench.DefaultBatchSize} {
				path := "per-round"
				if bs > 0 {
					path = fmt.Sprintf("batch=%d", bs)
				}
				for _, n := range counts {
					ratio, ns1, nsN, err := bench.ScalingRatio(r, n, scalingIters, scalingPairs, bs)
					if err != nil {
						return err
					}
					fmt.Fprintf(w, "throughput %-6s x%-2d %-9s gomaxprocs %-2d ratio %5.2f  %5.0f ns/IO alone  %5.0f ns/IO shared\n",
						t.Name, n, path, min(n, runtime.NumCPU()), ratio, ns1, nsN)
				}
			}
		}
		fmt.Fprintln(w)
	}

	if want("ablation") {
		var reds []*bench.AblationReductionRow
		var filts []*bench.AblationFilterRow
		for _, t := range workload.Targets(true) {
			r, err := bench.AblationReduction(t, 150)
			if err != nil {
				return err
			}
			reds = append(reds, r)
			f, err := bench.AblationFilters(t)
			if err != nil {
				return err
			}
			filts = append(filts, f)
		}
		bench.WriteAblations(w, reds, filts)
	}
	return nil
}
