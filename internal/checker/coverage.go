package checker

import (
	"sedspec/internal/core"
)

// AnomalyCoverage relates an anomaly to the training corpus: whether the
// block it was raised at is part of the learned ES-CFG, how often
// training visited that block, and — the coverage map's core promise —
// whether the specific transition behind the anomaly was ever exercised
// in training. For a true positive EdgeTrained is false by construction:
// the checker only raises control-flow anomalies on transitions the
// trained spec does not contain.
type AnomalyCoverage struct {
	BlockInSpec      bool   `json:"block_in_spec"`
	BlockTrainVisits uint64 `json:"block_train_visits"`
	EdgeKind         string `json:"edge_kind"`
	EdgeSel          uint64 `json:"edge_sel"`
	EdgeTrained      bool   `json:"edge_trained"`
}

// TrainingCoverage computes the training-corpus view of an anomaly
// against the spec generation that raised it.
func TrainingCoverage(spec *core.Spec, a *Anomaly) AnomalyCoverage {
	cov := AnomalyCoverage{EdgeKind: a.EdgeKind, EdgeSel: a.EdgeSel}
	id := spec.BlockFor(a.Block)
	var es *core.ESBlock
	if id != core.NoBlock {
		es = spec.Block(id)
	}
	if es != nil {
		cov.BlockInSpec = true
		cov.BlockTrainVisits = uint64(es.Visits)
	}
	switch a.EdgeKind {
	case "branch-taken":
		cov.EdgeTrained = es != nil && es.NBTD != nil && es.NBTD.TakenSeen && es.NBTD.TakenNext != core.NoBlock
	case "branch-not-taken":
		cov.EdgeTrained = es != nil && es.NBTD != nil && es.NBTD.NotTakenSeen && es.NBTD.NotTakenNext != core.NoBlock
	case "command", "switch":
		if es != nil && es.NBTD != nil {
			_, cov.EdgeTrained = es.NBTD.CaseNext[a.EdgeSel]
		}
	case "access":
		// The anomaly's block is the transition target; trained means the
		// access table admits it under the active command.
		cov.EdgeTrained = es != nil && spec.CmdTable.Accessible(a.EdgeSel, id)
	case "indirect":
		// EdgeSel is the jump target; trained means some learned
		// function-pointer field legitimizes it.
		for field := range spec.IndirectTargets {
			if spec.LegitimateTarget(field, a.EdgeSel) {
				cov.EdgeTrained = true
				break
			}
		}
	default:
		// "successor", "parameter", "control": nothing in the trained
		// structure corresponds to the offending behavior.
	}
	return cov
}
