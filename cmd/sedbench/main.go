// Command sedbench regenerates the tables and figures of the SEDSpec
// paper's evaluation against this repository's emulated-device substrate.
//
// Usage:
//
//	sedbench [-experiment all|table1|table2|table3|fig34|fig5|comparison|ablation|throughput]
//	         [-full] [-frames N] [-mib N]
//	         [-throughput-ops N] [-throughput-iters N] [-throughput-e2e-ops N] [-throughput-out FILE]
//
// The throughput experiment measures checked-I/O scaling when one sealed
// spec is shared across 1, 2, 4, 8 concurrent enforcement sessions per
// device, with GOMAXPROCS pinned to min(sessions, host CPUs) per row and
// a per-round/batched delivery ablation at every point — both the bare
// check loop (captured-stream replay) and full guest sessions on a
// machine pool — and writes -throughput-out (default
// BENCH_throughput.json, version 2). The check loop must be
// allocation-free at steady state; any point that allocates fails the
// experiment.
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
	tpOps := flag.Int("throughput-ops", 60, "benign session ops captured per device for the throughput replay")
	tpIters := flag.Int("throughput-iters", 200_000, "timed replay rounds per session for the throughput experiment")
	tpE2EOps := flag.Int("throughput-e2e-ops", 200, "benign ops per full guest session for the e2e throughput rows")
	tpOut := flag.String("throughput-out", "BENCH_throughput.json", "output file for the throughput experiment's JSON rows")
	listen := flag.String("listen", "", "serve the introspection endpoints (/healthz /fleet /metrics /journal /debug/pprof) on this address (profile live runs)")
	flag.Parse()

	cfg := runConfig{
		full: *full, frames: *frames, mib: *mib,
		tpOps: *tpOps, tpIters: *tpIters, tpE2EOps: *tpE2EOps, tpOut: *tpOut,
	}
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
	tpOps       int
	tpIters     int
	tpE2EOps    int
	tpOut       string
}

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
		counts := bench.SessionCounts()
		if bench.DegradedParallelism() {
			fmt.Fprintf(os.Stderr, "sedbench: WARNING: host has %d CPU(s) but the session ladder tops out at %d.\n"+
				"sedbench: rows with sessions > host CPUs time-slice on shared cores; their scaling numbers are\n"+
				"sedbench: work-normalized estimates, not wall-clock parallelism (degraded_parallelism=true in %s).\n"+
				"sedbench: for wall-clock scaling, re-run on a host with >= %d cores:\n"+
				"sedbench:     go run ./cmd/sedbench -experiment throughput\n",
				runtime.NumCPU(), counts[len(counts)-1], cfg.tpOut, counts[len(counts)-1])
		}
		var rows []*bench.ThroughputRow
		var e2e []*bench.E2ERow
		for _, t := range workload.Targets(true) {
			r, err := bench.NewCheckerReplay(t, cfg.tpOps)
			if err != nil {
				return err
			}
			trs, err := bench.Throughput(r, cfg.tpIters, counts)
			if err != nil {
				return err
			}
			for _, row := range trs {
				path := "per-round"
				if row.Batched {
					path = fmt.Sprintf("batch=%d", row.BatchSize)
				}
				fmt.Fprintf(w, "throughput %-6s x%-2d %-9s gomaxprocs %-2d %10.0f checked-I/Os/s  scaling %5.2fx  eff %5.1f%%\n",
					row.Device, row.Sessions, path, row.GoMaxProcs, row.AggPerSec, row.ScalingX, 100*row.Efficiency)
			}
			rows = append(rows, trs...)
			ers, err := bench.ThroughputE2E(t, r.Spec, cfg.tpE2EOps, counts)
			if err != nil {
				return err
			}
			for _, row := range ers {
				fmt.Fprintf(w, "e2e        %-6s x%-2d  %10.0f checked-I/Os/s  scaling %5.2fx\n",
					row.Device, row.Sessions, row.AggPerSec, row.ScalingX)
			}
			e2e = append(e2e, ers...)
		}
		f, err := os.Create(cfg.tpOut)
		if err != nil {
			return err
		}
		if err := bench.WriteThroughputJSON(f, rows, e2e); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", cfg.tpOut)
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
