package bench

import (
	"fmt"
	"io"

	"sedspec"
	"sedspec/internal/checker"
	"sedspec/internal/core"
	"sedspec/internal/simclock"
	"sedspec/internal/trace"
	"sedspec/internal/workload"
)

// AblationReductionRow compares specifications built with and without
// control-flow reduction: size and runtime simulation effort.
type AblationReductionRow struct {
	Device           string
	BlocksReduced    int
	BlocksUnreduced  int
	StepsReduced     uint64
	StepsUnreduced   uint64
	MergedBranches   int
	CompressedBlocks int
	SyncPoints       int
	KeptOps, DropOps int
	CommandsInTable  int
}

// AblationReduction measures the effect of the §V-C reduction.
func AblationReduction(t *workload.Target, opsPerRun int) (*AblationReductionRow, error) {
	row := &AblationReductionRow{Device: t.Name}

	run := func(opts core.BuildOpts) (int, uint64, error) {
		_, att := setup(t)
		r, err := sedspec.LearnFull(att, t.Train)
		if err != nil {
			return 0, 0, err
		}
		spec := r.Spec
		if opts.DisableReduction {
			spec, err = core.BuildWith(att.Dev().Program(), r.Params, r.Log, opts)
			if err != nil {
				return 0, 0, err
			}
		} else {
			row.MergedBranches = spec.Stats.MergedBranches
			row.CompressedBlocks = spec.Stats.CompressedBlocks
			row.SyncPoints = spec.Stats.SyncPoints
			row.KeptOps = spec.Stats.KeptOps
			row.DropOps = spec.Stats.DroppedOps
			row.CommandsInTable = spec.Stats.Commands
		}
		chk := sedspec.Protect(att, spec)
		rng := simclock.NewRand(23)
		s := t.NewSession(sedspec.NewDriver(att), rng)
		if err := s.Prepare(); err != nil {
			return 0, 0, err
		}
		for i := 0; i < opsPerRun; i++ {
			if err := s.Op(); err != nil {
				return 0, 0, err
			}
		}
		return spec.Stats.ESBlocks, chk.Stats().StepsSimulated, nil
	}

	var err error
	row.BlocksReduced, row.StepsReduced, err = run(core.BuildOpts{})
	if err != nil {
		return nil, fmt.Errorf("bench: reduction ablation %s: %w", t.Name, err)
	}
	row.BlocksUnreduced, row.StepsUnreduced, err = run(core.BuildOpts{DisableReduction: true})
	if err != nil {
		return nil, fmt.Errorf("bench: reduction ablation %s: %w", t.Name, err)
	}
	return row, nil
}

// AblationFilterRow compares trace volume with and without the paper's
// IPT filters (§IV-A).
type AblationFilterRow struct {
	Device            string
	PacketsFiltered   int
	PacketsUnfiltered int
	DroppedRange      int
	DroppedKernel     int
}

// AblationFilters runs the training workload twice, collecting packets
// with the device filters and with no filters at all.
func AblationFilters(t *workload.Target) (*AblationFilterRow, error) {
	row := &AblationFilterRow{Device: t.Name}

	run := func(cfg trace.Config, useDeviceCfg bool) (trace.Stats, error) {
		_, att := setup(t)
		if useDeviceCfg {
			cfg = trace.DeviceConfig(att.Dev().Program())
		}
		col := trace.NewCollector(cfg)
		att.Interp().SetTracer(col)
		defer att.Interp().SetTracer(nil)
		if err := t.Train(sedspec.NewDriver(att)); err != nil {
			return trace.Stats{}, err
		}
		return col.Stats(), nil
	}

	fs, err := run(trace.Config{}, true)
	if err != nil {
		return nil, fmt.Errorf("bench: filter ablation %s: %w", t.Name, err)
	}
	us, err := run(trace.Config{}, false)
	if err != nil {
		return nil, fmt.Errorf("bench: filter ablation %s: %w", t.Name, err)
	}
	row.PacketsFiltered = fs.Packets
	row.PacketsUnfiltered = us.Packets
	row.DroppedRange = fs.FilteredRange
	row.DroppedKernel = fs.FilteredKernel
	return row, nil
}

// AblationAccessSteps measures checker simulation effort with the command
// access table check on and off (the table's runtime cost).
func AblationAccessSteps(t *workload.Target, opsPerRun int) (withAC, withoutAC uint64, err error) {
	run := func(on bool) (uint64, error) {
		_, att := setup(t)
		spec, err := learn(t, att)
		if err != nil {
			return 0, err
		}
		chk := sedspec.Protect(att, spec, checker.WithAccessControl(on))
		rng := simclock.NewRand(29)
		s := t.NewSession(sedspec.NewDriver(att), rng)
		if err := s.Prepare(); err != nil {
			return 0, err
		}
		for i := 0; i < opsPerRun; i++ {
			if err := s.Op(); err != nil {
				return 0, err
			}
		}
		return chk.Stats().StepsSimulated, nil
	}
	withAC, err = run(true)
	if err != nil {
		return 0, 0, err
	}
	withoutAC, err = run(false)
	return withAC, withoutAC, err
}

// WriteAblations renders ablation results.
func WriteAblations(w io.Writer, reds []*AblationReductionRow, filts []*AblationFilterRow) {
	fmt.Fprintln(w, "Ablation — control-flow reduction (spec size / simulated steps)")
	for _, r := range reds {
		fmt.Fprintf(w, "  %-7s blocks %4d -> %4d (compressed %d, merged %d)   steps %8d -> %8d   kept/dropped ops %d/%d   sync points %d   commands %d\n",
			r.Device, r.BlocksUnreduced, r.BlocksReduced, r.CompressedBlocks, r.MergedBranches,
			r.StepsUnreduced, r.StepsReduced, r.KeptOps, r.DropOps, r.SyncPoints, r.CommandsInTable)
	}
	fmt.Fprintln(w, "Ablation — trace filters (packet volume)")
	for _, f := range filts {
		fmt.Fprintf(w, "  %-7s packets %8d (filtered) vs %8d (unfiltered); dropped by range %d, by ring filter %d\n",
			f.Device, f.PacketsFiltered, f.PacketsUnfiltered, f.DroppedRange, f.DroppedKernel)
	}
}
