// Fusion-coverage acceptance for the threaded-code lowering: an
// independent greedy scan over each benchmark device's spec DSOD
// re-derives which peephole patterns the op streams offer, and the
// lowering report must account for exactly those — every used pattern
// present with the right count, no phantom pairs, and the instruction
// stream length obeying the compaction arithmetic. A device whose spec
// offers no fusion at all fails loudly: the fused fast path would be
// silently unexercised.
package sedspec_test

import (
	"testing"

	"sedspec/internal/bench"
	"sedspec/internal/core"
	"sedspec/internal/ir"
	"sedspec/internal/workload"
)

// pairName restates the peephole pattern table from DESIGN.md
// independently of the fuser: the fusable adjacent op-code pairs and the
// report keys they count under.
func pairName(a, b ir.OpCode) (string, bool) {
	switch a {
	case ir.OpLoad:
		switch b {
		case ir.OpArith:
			return "load+arith", true
		case ir.OpConst:
			return "load+const", true
		}
	case ir.OpConst:
		switch b {
		case ir.OpArith:
			return "const+arith", true
		case ir.OpStore:
			return "const+store", true
		case ir.OpBufStore:
			return "const+bufstore", true
		case ir.OpConst:
			return "const+const", true
		}
	case ir.OpArith:
		if b == ir.OpStore {
			return "arith+store", true
		}
	case ir.OpBufLoad:
		if b == ir.OpStore {
			return "bufload+store", true
		}
	case ir.OpBufStore:
		if b == ir.OpConst {
			return "bufstore+const", true
		}
	case ir.OpStore:
		switch b {
		case ir.OpConst:
			return "store+const", true
		case ir.OpLoad:
			return "store+load", true
		}
	}
	return "", false
}

// expectedFusion greedily scans every live block's op run left to right —
// the fuser's documented strategy — and returns the per-pattern pair
// counts it should produce, the total op count, and the live block count.
func expectedFusion(s *core.Spec) (pairs map[string]int, ops, live int) {
	pairs = map[string]int{}
	for _, b := range s.Blocks {
		if b == nil {
			continue
		}
		live++
		dsod := b.DSOD
		ops += len(dsod)
		for i := 0; i < len(dsod); {
			if i+1 < len(dsod) {
				if name, ok := pairName(dsod[i].Op.Code, dsod[i+1].Op.Code); ok {
					pairs[name]++
					i += 2
					continue
				}
			}
			// Trailing compare feeding the block's conditional branch
			// fuses into the terminator.
			if n := b.NBTD; i == len(dsod)-1 && dsod[i].Op.Code == ir.OpArith &&
				n != nil && n.Kind == ir.TermBranch && n.Term != nil &&
				(n.Term.A == dsod[i].Op.Dst || n.Term.B == dsod[i].Op.Dst) {
				pairs["arith+branch"]++
			}
			i++
		}
	}
	return pairs, ops, live
}

func TestFusionCoverage(t *testing.T) {
	for _, target := range workload.Targets(true) {
		t.Run(target.Name, func(t *testing.T) {
			r, err := bench.NewCheckerReplay(target, 60)
			if err != nil {
				t.Fatal(err)
			}
			sealed := r.Spec.Seal()
			rep := sealed.Lowering()

			wantPairs, wantOps, live := expectedFusion(r.Spec)
			if len(wantPairs) == 0 {
				t.Fatal("device spec offers no fusion opportunities; the fused fast path is unexercised")
			}
			if rep.Ops != wantOps {
				t.Errorf("report ops = %d, independent scan counted %d", rep.Ops, wantOps)
			}
			for name, n := range wantPairs {
				if got := rep.Pairs[name]; got != n {
					t.Errorf("pattern %q: report %d pairs, independent scan %d", name, got, n)
				}
			}
			for name, n := range rep.Pairs {
				if want := wantPairs[name]; want != n {
					t.Errorf("pattern %q: report claims %d pairs, scan expects %d", name, n, want)
				}
			}

			// Stream-length conservation: one shared dangling instruction,
			// one terminator per live block, and each fused pair removes one
			// op instruction (a branch-fused arith removes its only one).
			if want := 1 + live + rep.Ops - rep.Elided - rep.FusedPairs(); rep.Instrs != want {
				t.Errorf("instr conservation: %d instrs, want 1 + %d live + %d ops - %d elided - %d pairs = %d",
					rep.Instrs, live, rep.Ops, rep.Elided, rep.FusedPairs(), want)
			}
			if d := rep.FusedDensity(); d <= 0 || d > 1 {
				t.Errorf("fused density = %.3f, want in (0, 1]", d)
			}

			// The coverage profile republishes the same statistics for
			// drift reports.
			low := sealed.CoverageProfile(1, nil).Lowering
			if low == nil {
				t.Fatal("coverage profile carries no lowering statistics")
			}
			if low.Ops != rep.Ops || low.Instrs != rep.Instrs ||
				low.FusedPairs != rep.FusedPairs() || low.Density != rep.FusedDensity() {
				t.Errorf("profile lowering %+v diverges from report (ops %d instrs %d pairs %d density %.3f)",
					low, rep.Ops, rep.Instrs, rep.FusedPairs(), rep.FusedDensity())
			}
		})
	}
}
