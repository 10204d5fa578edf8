package sedspec_test

import (
	"bytes"
	"sync"
	"testing"

	"sedspec"
	"sedspec/internal/checker"
	"sedspec/internal/devices/fdc"
	"sedspec/internal/simclock"
	"sedspec/internal/workload"
)

// mixedAudit runs the daemon's "mixed" workload (benign ops, a rare one
// at op 13 of every 89) for ops operations on a fresh machine under spec
// in enhancement mode, with the RNG a daemon session of that seed uses,
// and returns the audited warnings.
func mixedAudit(t *testing.T, c learnCorpus, tg *workload.Target, spec *sedspec.Spec, seed uint64, ops int) []sedspec.AuditRecord {
	t.Helper()
	att := c.attach()
	sh := sedspec.NewSharedChecker(spec, checker.WithMode(checker.ModeEnhancement))
	sedspec.ProtectShared(att, sh)
	w := tg.NewSession(sedspec.NewDriver(att), simclock.NewRand(seed^0x9e3779b97f4a7c15))
	if err := w.Prepare(); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < ops; n++ {
		op := w.Op
		if n%89 == 13 {
			op = w.Rare
		}
		if err := op(); err != nil {
			t.Fatalf("mixed op %d: %v", n, err)
		}
	}
	return sh.Audit()
}

// composedBlob learns, in one run, the training corpus followed by the
// audited requests — the corpus an enhance claims to learn — and
// returns the spec's encoding.
func composedBlob(t *testing.T, c learnCorpus, audits ...[]sedspec.AuditRecord) []byte {
	t.Helper()
	spec, err := sedspec.Learn(c.attach(), func(d *sedspec.Driver) error {
		if err := c.train(d); err != nil {
			return err
		}
		for _, audit := range audits {
			for _, a := range audit {
				var err error
				switch {
				case a.Write && a.Space == 0:
					_, err = d.Out(a.Addr, a.Data)
				case a.Write:
					_, err = d.MMIOWrite(a.Addr, a.Data)
				case a.Space == 0:
					_, _, err = d.In(a.Addr)
				default:
					_, _, err = d.MMIORead(a.Addr)
				}
				if err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return encodeSpec(t, spec)
}

// resumedBlob resumes cp on a fresh machine with audit and returns the
// learned spec's encoding.
func resumedBlob(t *testing.T, c learnCorpus, cp *sedspec.Checkpoint, audit []sedspec.AuditRecord) []byte {
	t.Helper()
	r, err := cp.Resume(c.attach(), audit)
	if err != nil {
		t.Error(err)
		return nil
	}
	b, err := r.Spec.EncodeBinary()
	if err != nil {
		t.Error(err)
	}
	return b
}

// TestCheckpointResumeMatchesComposedLearn pins a resumed learn to a
// single learn of the composed corpus on all five devices: resuming the
// training checkpoint with no audit, with the fleet's mixed audit (30
// ops, seed 1) and with a two-step enhance chain (through EnhanceToStore
// too) gives the composed corpus's spec bytes. Two resumes from one
// checkpoint, in either order and concurrently, give identical bytes,
// and the checkpoint's contents never change.
func TestCheckpointResumeMatchesComposedLearn(t *testing.T) {
	for _, tg := range workload.Targets(true) {
		t.Run(tg.Name, func(t *testing.T) {
			c := learnCorpus{tg.Name, tg.Build, tg.Train}
			cp, err := sedspec.Train(c.attach(), tg.Train)
			if err != nil {
				t.Fatal(err)
			}
			_, digest := sedspec.CheckpointRetained(cp)

			learned := resumedBlob(t, c, cp, nil)
			if !bytes.Equal(learned, composedBlob(t, c)) {
				t.Fatal("a resume with no audit differs from Learn")
			}
			parent, err := sedspec.Learn(c.attach(), tg.Train)
			if err != nil {
				t.Fatal(err)
			}
			a1 := mixedAudit(t, c, tg, parent, 1, 30)
			if len(a1) == 0 {
				t.Fatal("the mixed session raised no audited warning")
			}
			if !bytes.Equal(resumedBlob(t, c, cp, a1), composedBlob(t, c, a1)) {
				t.Error("a resume with the mixed audit differs from a learn of the composed corpus")
			}

			// The chain: enhance the learned version with a1, then the
			// child with a2 (a session under the child; sdhci's child
			// already covers every op, so it falls back to a second
			// seed under the parent).
			st, err := sedspec.OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			_, root, _, err := sedspec.LearnCached(st, c.attach(), "benign", tg.Train)
			if err != nil {
				t.Fatal(err)
			}
			child1, meta1, _, err := sedspec.EnhanceToStore(st, c.attach(), root, tg.Train, a1)
			if err != nil {
				t.Fatal(err)
			}
			a2 := mixedAudit(t, c, tg, child1, 2, 30)
			if len(a2) == 0 {
				a2 = mixedAudit(t, c, tg, parent, 2, 30)
			}
			child2, _, _, err := sedspec.EnhanceToStore(st, c.attach(), meta1, tg.Train, a2)
			if err != nil {
				t.Fatal(err)
			}
			want := composedBlob(t, c, a1, a2)
			if !bytes.Equal(encodeSpec(t, child2), want) {
				t.Error("EnhanceToStore's chained child differs from a learn of training, a1 and a2")
			}
			chain := append(append([]sedspec.AuditRecord(nil), a1...), a2...)
			if !bytes.Equal(resumedBlob(t, c, cp, chain), want) {
				t.Error("a resume with the chain's audits differs from a learn of training, a1 and a2")
			}

			// Order and concurrency: each audit resumes to the same
			// bytes whichever resume ran first, or both at once.
			ab := [][]byte{resumedBlob(t, c, cp, a1), resumedBlob(t, c, cp, chain)}
			ba := [][]byte{nil, resumedBlob(t, c, cp, chain)}
			ba[0] = resumedBlob(t, c, cp, a1)
			var par [2][]byte
			var wg sync.WaitGroup
			for i, audit := range [][]sedspec.AuditRecord{a1, chain} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					par[i] = resumedBlob(t, c, cp, audit)
				}()
			}
			wg.Wait()
			for i := range ab {
				if !bytes.Equal(ab[i], ba[i]) || !bytes.Equal(ab[i], par[i]) {
					t.Errorf("resume %d: bytes depend on the order or concurrency of resumes", i)
				}
			}
			if _, after := sedspec.CheckpointRetained(cp); after != digest {
				t.Error("resuming changed the checkpoint")
			}
		})
	}
}

// fdcAudit issues op on a fresh fdc under spec in enhancement mode and
// returns its warnings.
func fdcAudit(t *testing.T, c learnCorpus, spec *sedspec.Spec, op func(g *fdc.Guest) error) []sedspec.AuditRecord {
	t.Helper()
	att := c.attach()
	sh := sedspec.NewSharedChecker(spec, checker.WithMode(checker.ModeEnhancement))
	sedspec.ProtectShared(att, sh)
	g := fdc.NewGuest(sedspec.NewDriver(att))
	if err := g.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := op(g); err != nil {
		t.Fatal(err)
	}
	return sh.Audit()
}

// raises reports whether audit holds a warning with detail.
func raises(audit []sedspec.AuditRecord, detail string) bool {
	for _, a := range audit {
		if a.Detail == detail {
			return true
		}
	}
	return false
}

func fdcDumpReg(g *fdc.Guest) error { return g.DumpReg() }
func fdcFormat(g *fdc.Guest) error  { return g.Format(0, 2, 9) }

// TestEnhanceChainKeepsParentEnhancements pins what an enhanced child of
// an enhanced parent learns: its parent's warnings too. On fdc, DumpReg
// warns "unknown device command 0xe" under the learned spec, and the
// first enhance folds that request in. A Format warning under that child
// drives a second enhance, and under the grandchild DumpReg must not
// raise the original warning again.
func TestEnhanceChainKeepsParentEnhancements(t *testing.T) {
	tg := workload.TargetByName("fdc", true)
	c := learnCorpus{"fdc", tg.Build, tg.Train}
	st, err := sedspec.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec, meta, _, err := sedspec.LearnCached(st, c.attach(), "benign", tg.Train)
	if err != nil {
		t.Fatal(err)
	}
	a1 := fdcAudit(t, c, spec, fdcDumpReg)
	if len(a1) == 0 {
		t.Fatal("DumpReg raised no warning under the learned spec")
	}
	original := a1[0].Detail
	child1, meta1, _, err := sedspec.EnhanceToStore(st, c.attach(), meta, tg.Train, a1)
	if err != nil {
		t.Fatal(err)
	}
	if raises(fdcAudit(t, c, child1, fdcDumpReg), original) {
		t.Fatalf("DumpReg still warns %q under the child enhanced from it", original)
	}
	a2 := fdcAudit(t, c, child1, fdcFormat)
	if len(a2) == 0 {
		t.Fatal("Format raised no warning under the first child")
	}
	child2, meta2, _, err := sedspec.EnhanceToStore(st, c.attach(), meta1, tg.Train, a2)
	if err != nil {
		t.Fatal(err)
	}
	if meta2.Parent != meta1.Generation {
		t.Errorf("second child's parent is generation %d, want %d", meta2.Parent, meta1.Generation)
	}
	if raises(fdcAudit(t, c, child2, fdcDumpReg), original) {
		t.Errorf("the chained child forgot its parent's enhancement: DumpReg warns %q again", original)
	}
}

// TestEnhancedVersionKeys pins the enhanced-child key scheme. A child of
// a learned parent keeps the key every build has given it (a golden
// value), so existing stores still hit. A child of an enhanced parent
// replays the parent's chain, so its key is domain-separated from what
// the same derivation gives a learned parent's child.
func TestEnhancedVersionKeys(t *testing.T) {
	parent := sedspec.SpecVersion{Device: "fdc", ProgramHash: "prog", Generation: 1, CreatedBy: "learn",
		CorpusHash: "learned-corpus"}
	audit := []sedspec.AuditRecord{{Space: 0, Addr: 0x3f5, Write: true, Data: []byte{0x0e}}}
	child := sedspec.EnhancedVersion("prog", parent, audit)
	if want := "5586cbd3368762eb643d78b5e4fa987ff07517ff626e1c78707c55e42158bae7"; child.CorpusHash != want {
		t.Errorf("first-level child corpus hash %s, want %s", child.CorpusHash, want)
	}
	parent.CreatedBy = "enhance"
	if chained := sedspec.EnhancedVersion("prog", parent, audit); chained.Key() == child.Key() {
		t.Errorf("a chained child shares the key %+v of a learned parent's child", chained.Key())
	}
}

// TestForgetfulChainedChildIsAMiss pins the chained key against a store
// written when a chained enhance learned only training plus its own
// audit: such a store holds that forgetful child under the key a learned
// parent's child derivation gives. EnhanceToStore must not load it, but
// learn the chain and publish a new generation.
func TestForgetfulChainedChildIsAMiss(t *testing.T) {
	tg := workload.TargetByName("fdc", true)
	c := learnCorpus{"fdc", tg.Build, tg.Train}
	st, err := sedspec.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec, meta, _, err := sedspec.LearnCached(st, c.attach(), "benign", tg.Train)
	if err != nil {
		t.Fatal(err)
	}
	a1 := fdcAudit(t, c, spec, fdcDumpReg)
	child1, meta1, _, err := sedspec.EnhanceToStore(st, c.attach(), meta, tg.Train, a1)
	if err != nil {
		t.Fatal(err)
	}
	a2 := fdcAudit(t, c, child1, fdcFormat)
	forgetful, err := sedspec.Enhance(c.attach(), tg.Train, a2)
	if err != nil {
		t.Fatal(err)
	}
	asLearned := meta1
	asLearned.CreatedBy = "learn"
	stale, err := st.Put(forgetful, sedspec.EnhancedVersion(meta1.ProgramHash, asLearned, a2))
	if err != nil {
		t.Fatal(err)
	}
	child2, meta2, hit, err := sedspec.EnhanceToStore(st, c.attach(), meta1, tg.Train, a2)
	if err != nil {
		t.Fatal(err)
	}
	if hit || meta2.Generation <= stale.Generation {
		t.Fatalf("enhance of generation %d: hit=%v generation %d, want a miss publishing past the forgetful generation %d",
			meta1.Generation, hit, meta2.Generation, stale.Generation)
	}
	if original := a1[0].Detail; raises(fdcAudit(t, c, child2, fdcDumpReg), original) {
		t.Errorf("the chained child forgot its parent's enhancement: DumpReg warns %q again", original)
	}
}

// TestCheckpointFootprint bounds what a daemon keeps per device for its
// enhances: the light benign corpus's training checkpoint (trace
// packets, capture log and values, machine snapshot).
func TestCheckpointFootprint(t *testing.T) {
	const bound = 384 << 10
	total := 0
	for _, tg := range workload.Targets(true) {
		c := learnCorpus{tg.Name, tg.Build, tg.Train}
		cp, err := sedspec.Train(c.attach(), tg.Train)
		if err != nil {
			t.Fatal(err)
		}
		n, _ := sedspec.CheckpointRetained(cp)
		total += n
		t.Logf("%s: checkpoint retains %d bytes (%.1f KiB)", tg.Name, n, float64(n)/1024)
		if n > bound {
			t.Errorf("%s: checkpoint retains %d bytes, bound %d", tg.Name, n, bound)
		}
	}
	t.Logf("five devices: %d bytes (%.1f KiB)", total, float64(total)/1024)
}
