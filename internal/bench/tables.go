package bench

import (
	"fmt"
	"io"
	"strings"

	"sedspec"
	"sedspec/internal/analysis"
	"sedspec/internal/checker"
	"sedspec/internal/cvesim"
	"sedspec/internal/fuzzer"
	"sedspec/internal/simclock"
	"sedspec/internal/workload"
)

// --- Table I: device-state parameter selection ---

// Table1Row is one device's parameter selection.
type Table1Row struct {
	Device string
	Params []analysis.Param
}

// Table1 runs the CFG analyzer over every device and reports the selected
// device-state parameters by class (the paper's Table I taxonomy).
func Table1(light bool) ([]Table1Row, error) {
	var rows []Table1Row
	for _, t := range workload.Targets(light) {
		_, att := setup(t)
		r, err := sedspec.LearnFull(att, t.Train)
		if err != nil {
			return nil, fmt.Errorf("bench: table1 %s: %w", t.Name, err)
		}
		rows = append(rows, Table1Row{Device: t.Name, Params: r.Params.Params})
	}
	return rows, nil
}

// WriteTable1 renders Table I.
func WriteTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "Table I — Selection of Device State Parameters")
	for _, r := range rows {
		byClass := map[analysis.ParamClass][]string{}
		for _, p := range r.Params {
			byClass[p.Class] = append(byClass[p.Class], p.Name)
		}
		fmt.Fprintf(w, "  %-6s register: %-28s buffer: %-22s index/count: %-34s funcptr: %s\n",
			r.Device,
			strings.Join(byClass[analysis.ClassRegister], ","),
			strings.Join(byClass[analysis.ClassBuffer], ","),
			strings.Join(byClass[analysis.ClassIndex], ","),
			strings.Join(byClass[analysis.ClassFuncPtr], ","))
	}
}

// --- Table II: false positives over time ---

// FPConfig tunes the long-run interaction study.
type FPConfig struct {
	// Hours are the snapshot points (paper: 10, 20, 30).
	Hours []int
	// CasesPerHour is how many test cases one virtual hour holds.
	CasesPerHour int
	// OpsPerCase is the I/O-sequence batch size of one test case.
	OpsPerCase int
	// RarePerCase is the probability a case contains one rare command.
	RarePerCase float64
	Seed        uint64
}

// DefaultFPConfig mirrors the paper's regime: test cases of substantial
// I/O volume, with false positives confined to exceedingly rare commands.
func DefaultFPConfig() FPConfig {
	return FPConfig{
		Hours:        []int{10, 20, 30},
		CasesPerHour: 50,
		OpsPerCase:   40,
		RarePerCase:  0.0015,
		Seed:         7,
	}
}

// Table2Row is one device's false-positive counts at each snapshot.
type Table2Row struct {
	Device     string
	Counts     []int // cumulative FP cases at each Hours entry
	TotalCases int
	FPR        float64
}

// Table2 runs the three interaction modes (sequential, random,
// random-with-delay) against a protected device for the configured virtual
// hours, counting legitimate test cases flagged as anomalous.
func Table2(t *workload.Target, cfg FPConfig) (*Table2Row, error) {
	m, att := setup(t)
	spec, err := learn(t, att)
	if err != nil {
		return nil, err
	}
	chk := sedspec.Protect(att, spec, checker.WithMode(checker.ModeEnhancement))

	rng := simclock.NewRand(cfg.Seed)
	d := sedspec.NewDriver(att)
	s := t.NewSession(d, rng)
	if err := s.Prepare(); err != nil {
		return nil, fmt.Errorf("bench: table2 %s prepare: %w", t.Name, err)
	}

	row := &Table2Row{Device: t.Name, Counts: make([]int, len(cfg.Hours))}
	lastHours := cfg.Hours[len(cfg.Hours)-1]
	totalCases := lastHours * cfg.CasesPerHour
	perCase := 3600.0 / float64(cfg.CasesPerHour) // seconds of virtual time

	fpCases := 0
	for c := 0; c < totalCases; c++ {
		mode := workload.Modes()[c%3]
		warningsBefore := chk.Stats().Warnings
		rareAt := -1
		if rng.Float64() < cfg.RarePerCase*t.RareWeight {
			rareAt = rng.Intn(cfg.OpsPerCase)
		}
		caseRng := rng
		if mode == workload.Sequential {
			caseRng = simclock.NewRand(cfg.Seed) // fixed order every case
		}
		sSeq := t.NewSession(d, caseRng)
		for op := 0; op < cfg.OpsPerCase; op++ {
			var err error
			if op == rareAt {
				err = s.Rare()
			} else if mode == workload.Sequential {
				err = sSeq.Op()
			} else {
				err = s.Op()
			}
			if err != nil {
				return nil, fmt.Errorf("bench: table2 %s case %d: %w", t.Name, c, err)
			}
			if mode == workload.RandomDelay {
				m.Clock.AdvanceMicros(int64(rng.Intn(100_000)))
			}
		}
		m.Clock.AdvanceMicros(int64(perCase * 1e6))
		if chk.Stats().Warnings > warningsBefore {
			fpCases++
		}
		for hi, h := range cfg.Hours {
			if c+1 == h*cfg.CasesPerHour {
				row.Counts[hi] = fpCases
			}
		}
	}
	row.TotalCases = totalCases
	row.FPR = float64(fpCases) / float64(totalCases)
	return row, nil
}

// WriteTable2 renders Table II.
func WriteTable2(w io.Writer, hours []int, rows []*Table2Row) {
	fmt.Fprintln(w, "Table II — False Positives Over Time")
	fmt.Fprintf(w, "  %-8s", "Device")
	for _, h := range hours {
		fmt.Fprintf(w, " %3d hours", h)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-8s", r.Device)
		for _, c := range r.Counts {
			fmt.Fprintf(w, " %9d", c)
		}
		fmt.Fprintln(w)
	}
}

// --- Table III: detection matrix, FPR, effective coverage ---

// Table3Row is one CVE case study's outcome.
type Table3Row struct {
	Device    string
	CVE       string
	QEMU      string
	Param     bool
	Indirect  bool
	Cond      bool
	Detected  bool
	Succeeded bool // exploit effect reached the device despite protection
}

// Table3Detection replays every PoC per strategy, reproducing the
// checkmark matrix of Table III.
func Table3Detection() ([]Table3Row, error) {
	var rows []Table3Row
	for _, p := range cvesim.All() {
		row := Table3Row{Device: p.Device, CVE: p.CVE, QEMU: p.QEMU}
		for _, s := range []checker.Strategy{
			checker.StrategyParameter,
			checker.StrategyIndirectJump,
			checker.StrategyConditionalJump,
		} {
			out, err := p.RunProtected(s)
			if err != nil {
				return nil, fmt.Errorf("bench: table3 %s/%v: %w", p.CVE, s, err)
			}
			if out.Detected {
				switch s {
				case checker.StrategyParameter:
					row.Param = true
				case checker.StrategyIndirectJump:
					row.Indirect = true
				case checker.StrategyConditionalJump:
					row.Cond = true
				}
			}
		}
		full, err := p.RunProtected()
		if err != nil {
			return nil, err
		}
		row.Detected = full.Detected
		row.Succeeded = full.Succeeded
		rows = append(rows, row)
	}
	return rows, nil
}

// EffectiveCoverage computes the fraction of legitimate code paths
// (approximated by fuzzing the device with its full benign-plus-rare
// operation mix) that the execution specification covers.
func EffectiveCoverage(t *workload.Target, fuzzOps int, seed uint64) (float64, error) {
	_, att := setup(t)
	spec, err := learn(t, att)
	if err != nil {
		return 0, err
	}

	rng := simclock.NewRand(seed)
	att.Dev().Reset()
	d := sedspec.NewDriver(att)
	s := t.NewSession(d, rng)
	covered, err := fuzzer.Blocks(att, func() error {
		if err := s.Prepare(); err != nil {
			return err
		}
		for i := 0; i < fuzzOps; i++ {
			var err error
			if rng.Bool(0.04) {
				err = s.Rare()
			} else {
				err = s.Op()
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("bench: coverage fuzz %s: %w", t.Name, err)
	}
	if len(covered) == 0 {
		return 0, fmt.Errorf("bench: coverage fuzz %s reached no blocks", t.Name)
	}
	hit := 0
	for ref := range covered {
		if spec.Covers(ref) {
			hit++
		}
	}
	return float64(hit) / float64(len(covered)), nil
}

// WriteTable3 renders Table III.
func WriteTable3(w io.Writer, rows []Table3Row, fpr map[string]float64, cov map[string]float64) {
	fmt.Fprintln(w, "Table III — Main results")
	fmt.Fprintf(w, "  %-7s %-15s %-7s %-6s %-9s %-5s %-8s %-6s %-9s\n",
		"Device", "CVE", "QEMU", "Param", "Indirect", "Cond", "Detected", "FPR", "Coverage")
	mark := func(b bool) string {
		if b {
			return "x"
		}
		return "-"
	}
	for _, r := range rows {
		fprS, covS := "", ""
		if v, ok := fpr[r.Device]; ok {
			fprS = fmt.Sprintf("%.2f%%", v*100)
		}
		if v, ok := cov[r.Device]; ok {
			covS = fmt.Sprintf("%.1f%%", v*100)
		}
		fmt.Fprintf(w, "  %-7s %-15s %-7s %-6s %-9s %-5s %-8s %-6s %-9s\n",
			r.Device, r.CVE, r.QEMU, mark(r.Param), mark(r.Indirect), mark(r.Cond),
			mark(r.Detected), fprS, covS)
	}
}
