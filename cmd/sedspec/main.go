// Command sedspec is the SEDSpec workflow driver: learn an execution
// specification for an emulated device, inspect it, save it,
// and demonstrate runtime protection against the device's CVE exploit.
//
// Usage:
//
//	sedspec -device fdc|ehci|pcnet|sdhci|scsi [-out spec.json]
//	        [-spec-in spec.bin] [-spec-out spec.bin] [-spec-store DIR]
//	        [-dot cfg.dot] [-attack] [-enhance]
//	        [-mode protection|enhancement]
//	        [-trace-on-anomaly DIR] [-coverage-dir DIR]
//	        [-listen ADDR]
//
// Without flags it learns the specification, prints its summary and the
// selected device-state parameters, and replays the benign workload under
// protection. With -attack it additionally replays the device's CVE
// proof-of-concept and reports the verdict.
//
// Spec lifecycle: -spec-out writes the learned specification in the
// compact binary codec, -spec-in loads one instead of learning (the two
// compose: load, then re-export), and -spec-store learns through a
// versioned spec store — a second run with the same device and training
// corpus is a cache hit that skips learning entirely. With -enhance the
// benign replay runs in enhancement mode, the device's rare legitimate
// command is issued so it is audited as a warning, and the enhanced
// spec is published to the store as the next generation (diff the pair
// with the report subcommand).
//
// Observability: -trace-on-anomaly writes each blocked PoC's
// flight-recorder timeline as DIR/<CVE>.trace, -coverage-dir writes the
// run's ES-CFG coverage profile (and each blocked PoC's anomaly
// training-coverage record) as JSON, and -listen serves the unified
// introspection server (/healthz, /fleet, /metrics, /journal events,
// /debug/pprof) on the given address. Final exports also run on
// SIGINT/SIGTERM.
//
// The report subcommand diffs two spec generations' structure and
// coverage:
//
//	sedspec report -spec-store DIR -device fdc -from 1 -to 2 [-json]
//
// The logs subcommand reads a running process's telemetry events from
// /journal: the daemon's durable journal — history that survives
// restarts — or, on a server without one, the hub's in-memory recent
// ring. With -follow the server splices the live tail onto the history,
// and the client reconnects when the stream drops:
//
//	sedspec logs ADDR [-since 15m] [-until TIME] [-kinds anomaly]
//	             [-tenant T] [-device D] [-json] [-n N] [-follow]
//	             [-retry-max 15s]
//
// The control-plane subcommands drive a running sedspecd fleet daemon
// over its HTTP/JSON API (see cmd/sedspecd):
//
//	sedspec tenant [-addr A] create|delete|list [NAME]
//	sedspec install [-addr A] -tenant T -device D [-corpus C] [-mode M] [-budget N]
//	sedspec attach  [-addr A] -tenant T -device D [-workload W] [-cve ID] [-count N]
//	sedspec detach  [-addr A] -tenant T -id N
//	sedspec swap    [-addr A] -tenant T -device D [-enhance] [-generation N]
//	sedspec status  [-addr A] [-tenant T]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"sedspec"
	"sedspec/internal/checker"
	"sedspec/internal/cmdutil"
	"sedspec/internal/core"
	"sedspec/internal/cvesim"
	"sedspec/internal/machine"
	"sedspec/internal/obs"
	"sedspec/internal/simclock"
	"sedspec/internal/workload"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "report" {
		if err := runReport(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "sedspec report:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 {
		ctl := map[string]func([]string) error{
			"logs":    runLogs,
			"tenant":  runTenant,
			"install": runInstall,
			"attach":  runAttach,
			"detach":  runDetach,
			"swap":    runSwap,
			"status":  runStatus,
		}
		if run, ok := ctl[os.Args[1]]; ok {
			if err := run(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "sedspec "+os.Args[1]+":", err)
				os.Exit(1)
			}
			return
		}
	}

	var cfg runConfig
	flag.StringVar(&cfg.device, "device", "fdc", "device to build a specification for")
	flag.StringVar(&cfg.out, "out", "", "write the specification as JSON to this file")
	flag.StringVar(&cfg.specIn, "spec-in", "", "load a binary specification from this file instead of learning")
	flag.StringVar(&cfg.specOut, "spec-out", "", "write the specification in the binary codec to this file")
	flag.StringVar(&cfg.specStore, "spec-store", "", "learn through a versioned spec store at this directory (cache hit skips learning)")
	flag.StringVar(&cfg.dot, "dot", "", "write the ES-CFG as Graphviz to this file")
	flag.BoolVar(&cfg.attack, "attack", false, "replay the device's CVE proof(s) of concept")
	flag.BoolVar(&cfg.enhance, "enhance", false, "audit the device's rare legitimate command in enhancement mode and publish the enhanced spec to -spec-store")
	flag.StringVar(&cfg.mode, "mode", "protection", "checker working mode: protection or enhancement")
	listen := flag.String("listen", "", "serve the introspection endpoints (/healthz /fleet /metrics /journal /debug/pprof) on this address")
	flag.StringVar(&cfg.traceDir, "trace-on-anomaly", "", "write each blocked PoC's flight-recorder timeline into this directory")
	flag.StringVar(&cfg.coverageDir, "coverage-dir", "", "write ES-CFG coverage profiles and per-PoC anomaly coverage as JSON into this directory")
	flag.Parse()

	if err := realMain(cfg, *listen); err != nil {
		fmt.Fprintln(os.Stderr, "sedspec:", err)
		os.Exit(1)
	}
}

type runConfig struct {
	device      string
	out         string
	specIn      string
	specOut     string
	specStore   string
	dot         string
	attack      bool
	enhance     bool
	mode        string
	traceDir    string
	coverageDir string
}

// realMain brackets run with the observability plumbing so the final
// exports happen on the error path and on SIGINT/SIGTERM too (os.Exit
// skips defers).
func realMain(cfg runConfig, listenAddr string) error {
	if listenAddr != "" {
		if _, err := cmdutil.ServeIntrospection(listenAddr); err != nil {
			return fmt.Errorf("listen: %w", err)
		}
	}
	fl := cmdutil.NewFlusher()
	defer fl.Flush()
	return run(cfg, fl)
}

// obtainSpec resolves the specification from one of three sources, in
// precedence order: a binary file (-spec-in), a versioned store
// (-spec-store, learning on miss), or a fresh learning run. When the
// spec came from a store, the store handle and the version's generation
// are returned too so the run can publish its coverage profile back.
func obtainSpec(cfg runConfig, target *workload.Target, att *machine.Attached) (*core.Spec, *sedspec.SpecStore, sedspec.SpecVersion, error) {
	device := cfg.device
	if cfg.specIn != "" {
		data, err := os.ReadFile(cfg.specIn)
		if err != nil {
			return nil, nil, sedspec.SpecVersion{}, err
		}
		spec, err := core.DecodeBinary(att.Dev().Program(), data)
		if err != nil {
			return nil, nil, sedspec.SpecVersion{}, fmt.Errorf("%s: %w", cfg.specIn, err)
		}
		fmt.Printf("loaded execution specification for %s from %s\n", device, cfg.specIn)
		fmt.Print(spec.String())
		return spec, nil, sedspec.SpecVersion{}, nil
	}
	if cfg.specStore != "" {
		st, err := sedspec.OpenStore(cfg.specStore)
		if err != nil {
			return nil, nil, sedspec.SpecVersion{}, err
		}
		spec, meta, hit, err := sedspec.LearnCached(st, att, "benign-train", target.Train)
		if err != nil {
			return nil, nil, sedspec.SpecVersion{}, err
		}
		if hit {
			fmt.Printf("store hit: %s generation %d (%s, created by %s)\n",
				device, meta.Generation, meta.Blob[:12], meta.CreatedBy)
		} else {
			fmt.Printf("store miss: learned %s and published generation %d (%s)\n",
				device, meta.Generation, meta.Blob[:12])
		}
		fmt.Print(spec.String())
		return spec, st, meta, nil
	}

	fmt.Printf("learning execution specification for %s ...\n", device)
	r, err := sedspec.LearnFull(att, target.Train)
	if err != nil {
		return nil, nil, sedspec.SpecVersion{}, err
	}
	fmt.Print(r.Spec.String())
	fmt.Print(r.Params.String())
	fmt.Printf("trace: %d packets collected (%d events; %d range-filtered, %d ring-filtered)\n",
		r.Trace.Packets, r.Trace.Events, r.Trace.FilteredRange, r.Trace.FilteredKernel)
	return r.Spec, nil, sedspec.SpecVersion{}, nil
}

func run(cfg runConfig, fl *cmdutil.Flusher) error {
	device, out, dot := cfg.device, cfg.out, cfg.dot
	target := workload.TargetByName(device, false)
	if target == nil {
		return fmt.Errorf("unknown device %q", device)
	}

	m := machine.New(machine.WithMemory(1 << 20))
	dev, opts := target.Build()
	att := m.Attach(dev, opts...)

	spec, st, meta, err := obtainSpec(cfg, target, att)
	if err != nil {
		return err
	}
	gen := meta.Generation

	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := spec.Save(f); err != nil {
			return err
		}
		fmt.Printf("specification written to %s\n", out)
	}
	if cfg.specOut != "" {
		data, err := spec.EncodeBinary()
		if err != nil {
			return err
		}
		// Round-trip sanity: the encoded spec must decode against the
		// same program.
		if _, err := core.DecodeBinary(dev.Program(), data); err != nil {
			return fmt.Errorf("encoded spec does not decode: %w", err)
		}
		if err := os.WriteFile(cfg.specOut, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("binary specification written to %s (%d bytes)\n", cfg.specOut, len(data))
	}
	if dot != "" {
		if err := os.WriteFile(dot, []byte(spec.Dot()), 0o644); err != nil {
			return err
		}
		fmt.Printf("ES-CFG written to %s\n", dot)
	}

	chkMode := checker.ModeProtection
	if cfg.mode == "enhancement" || cfg.enhance {
		chkMode = checker.ModeEnhancement
	}
	chk := sedspec.Protect(att, spec, checker.WithMode(chkMode))
	fmt.Printf("replaying benign workload under %s mode ... ", chkMode)
	if err := target.Train(sedspec.NewDriver(att)); err != nil {
		return fmt.Errorf("benign workload blocked: %w", err)
	}
	cst := chk.Stats()
	fmt.Printf("clean (%d rounds checked, %d anomalies)\n",
		cst.Rounds, cst.ParamAnomalies+cst.IndirectAnomalies+cst.CondAnomalies)

	if cfg.enhance {
		if err := runEnhance(target, att, chk, st, meta); err != nil {
			return err
		}
	}

	// Final coverage exports run through the flusher so an interrupted
	// run still leaves its profile on disk — and, when the spec came from
	// a store, publishes the profile back under its generation for
	// `sedspec report` to overlay.
	fl.Add(func() error {
		p := chk.CoverageProfile()
		if p == nil {
			return nil
		}
		if gen != 0 {
			p.Generation = gen
		}
		if st != nil {
			if err := st.PutCoverage(p); err != nil {
				return err
			}
		}
		if cfg.coverageDir != "" {
			name := fmt.Sprintf("%s-g%d.coverage.json", device, p.Generation)
			return cmdutil.WriteJSON(filepath.Join(cfg.coverageDir, name), p)
		}
		return nil
	})

	if cfg.attack {
		for _, poc := range cvesim.All() {
			if poc.Device != device {
				continue
			}
			outc, err := poc.RunProtected()
			if err != nil {
				return err
			}
			verdict := "MISSED (documented false negative)"
			if outc.Detected {
				verdict = fmt.Sprintf("BLOCKED by %s", outc.Anomaly.Strategy)
			}
			fmt.Printf("%s: %s\n", poc.CVE, verdict)
			if outc.Detected && outc.Anomaly != nil {
				fmt.Printf("  %s\n", outc.Anomaly.Detail)
				if cfg.traceDir != "" && outc.Anomaly.Ctx != nil {
					if err := writeTrace(cfg.traceDir, poc.CVE, outc.Anomaly.Ctx); err != nil {
						return err
					}
				}
				if cfg.coverageDir != "" {
					if err := writeAnomalyCoverage(cfg.coverageDir, &outc); err != nil {
						return err
					}
				}
			}
		}
	}
	return fl.Flush()
}

// runEnhance demonstrates the enhancement pipeline end to end: drive
// the device's rare-but-legitimate command under the already-running
// enhancement-mode checker (which warns and audits it rather than
// blocking), then replay the audit into a fresh learn and publish the
// enhanced spec as the next store generation — the two generations
// `sedspec report` is made to diff.
func runEnhance(target *workload.Target, att *machine.Attached, chk *checker.Checker, st *sedspec.SpecStore, parent sedspec.SpecVersion) error {
	if st == nil {
		return fmt.Errorf("-enhance requires -spec-store (the enhanced spec is published as a new generation)")
	}
	s := target.NewSession(sedspec.NewDriver(att), simclock.NewRand(1))
	if s.Prepare != nil {
		if err := s.Prepare(); err != nil {
			return fmt.Errorf("device bring-up: %w", err)
		}
	}
	if err := s.Rare(); err != nil {
		return fmt.Errorf("rare command blocked (enhancement mode should warn): %w", err)
	}
	audit := chk.Audit()
	if len(audit) == 0 {
		return fmt.Errorf("rare command raised no warning: training already covers it, nothing to enhance")
	}
	fmt.Printf("audited %d benign-but-untrained warning(s)\n", len(audit))

	// The enhancement replay needs a fresh instance of the same device
	// program: training composes the original corpus with the audit.
	m2 := machine.New(machine.WithMemory(1 << 20))
	dev2, opts2 := target.Build()
	att2 := m2.Attach(dev2, opts2...)
	_, meta2, hit, err := sedspec.EnhanceToStore(st, att2, parent, target.Train, audit)
	if err != nil {
		return err
	}
	if hit {
		fmt.Printf("store hit: enhanced spec already published as generation %d (parent %d)\n",
			meta2.Generation, meta2.Parent)
	} else {
		fmt.Printf("enhanced spec published: generation %d (parent %d, created by %s)\n",
			meta2.Generation, meta2.Parent, meta2.CreatedBy)
	}
	fmt.Printf("diff them: sedspec report -spec-store %s -device %s -from %d -to %d\n",
		st.Dir(), target.Name, parent.Generation, meta2.Generation)
	return nil
}

// writeAnomalyCoverage relates a blocked PoC's anomaly to its training
// corpus (DIR/<CVE>.anomaly.json) and dumps the protected run's coverage
// profile (DIR/<CVE>.coverage.json). For a true positive the anomaly
// record's edge_trained field is false: training never exercised the
// transition the exploit needed.
func writeAnomalyCoverage(dir string, outc *cvesim.Outcome) error {
	cov := checker.TrainingCoverage(outc.Spec, outc.Anomaly)
	rec := struct {
		CVE      string                  `json:"cve"`
		Strategy string                  `json:"strategy"`
		Detail   string                  `json:"detail"`
		Coverage checker.AnomalyCoverage `json:"coverage"`
	}{outc.CVE, outc.Anomaly.Strategy.String(), outc.Anomaly.Detail, cov}
	if err := cmdutil.WriteJSON(filepath.Join(dir, outc.CVE+".anomaly.json"), rec); err != nil {
		return err
	}
	if p := outc.Checker.CoverageProfile(); p != nil {
		if err := cmdutil.WriteJSON(filepath.Join(dir, outc.CVE+".coverage.json"), p); err != nil {
			return err
		}
	}
	fmt.Printf("  anomaly coverage: block_in_spec=%v edge_kind=%s edge_trained=%v\n",
		cov.BlockInSpec, cov.EdgeKind, cov.EdgeTrained)
	return nil
}

// runReport implements `sedspec report`: load two generations of a
// device's spec from the store, build each one's coverage profile
// (structural baseline from the sealed spec, overlaid with the runtime
// counts published by enforcement runs, when present), and print the
// drift between them — blocks/edges/commands the newer generation
// legalized or dropped, plus what enforcement never exercised.
func runReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	storeDir := fs.String("spec-store", "", "spec store directory (required)")
	device := fs.String("device", "fdc", "device whose generations to diff")
	from := fs.Uint64("from", 0, "older generation (required)")
	to := fs.Uint64("to", 0, "newer generation (required)")
	asJSON := fs.Bool("json", false, "emit the drift report as JSON instead of a table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storeDir == "" || *from == 0 || *to == 0 {
		return fmt.Errorf("usage: sedspec report -spec-store DIR -device DEV -from GEN -to GEN [-json]")
	}
	target := workload.TargetByName(*device, false)
	if target == nil {
		return fmt.Errorf("unknown device %q", *device)
	}
	st, err := sedspec.OpenStore(*storeDir)
	if err != nil {
		return err
	}
	dev, _ := target.Build()
	prog := dev.Program()

	profileOf := func(gen uint64) (*sedspec.CoverageProfile, error) {
		var meta sedspec.SpecVersion
		found := false
		for _, v := range st.Versions(prog.Name) {
			if v.Generation == gen {
				meta, found = v, true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("%s generation %d not in store", prog.Name, gen)
		}
		spec, err := st.Load(prog, meta)
		if err != nil {
			return nil, err
		}
		// Structural baseline (training counts, zero runtime hits) from
		// the sealed spec; a published runtime profile replaces it.
		p := spec.Seal().CoverageProfile(gen, nil)
		if stored, ok, err := st.LoadCoverage(prog.Name, gen); err != nil {
			return nil, err
		} else if ok {
			if stored.Lowering == nil {
				// Profiles published before lowering stats existed: the
				// stream is a pure function of the sealed spec, so the
				// structural baseline's stats apply verbatim.
				stored.Lowering = p.Lowering
			}
			p = stored
		}
		return p, nil
	}

	fromProf, err := profileOf(*from)
	if err != nil {
		return err
	}
	toProf, err := profileOf(*to)
	if err != nil {
		return err
	}
	drift := sedspec.DiffCoverage(fromProf, toProf)
	if *asJSON {
		return drift.WriteJSON(os.Stdout)
	}
	return drift.WriteTable(os.Stdout)
}

// writeTrace dumps a blocked PoC's forensic timeline as DIR/<CVE>.trace.
func writeTrace(dir, cve string, ctx *obs.AnomalyContext) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, cve+".trace")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ctx.WriteTimeline(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("  timeline written to %s\n", path)
	return nil
}
