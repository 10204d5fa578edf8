// Spec lifecycle acceptance tests: the versioned store, the enhancement
// pipeline that folds audited warnings into a new spec version, and the
// zero-downtime hot-swap that installs it under live enforcement.
package sedspec_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"sedspec"
	"sedspec/internal/checker"
	"sedspec/internal/core"
	"sedspec/internal/devices/testdev"
	"sedspec/internal/machine"
	"sedspec/internal/obs"
	"sedspec/internal/obs/stream"
)

func lifecycleBuild() (machine.Device, []machine.AttachOption) {
	return testdev.New(testdev.Options{}),
		[]machine.AttachOption{machine.WithPIO(testdev.PortCmd, testdev.PortCount)}
}

// roundTrip pushes a spec through the binary codec, yielding an equivalent
// but distinct Spec — the cheapest way to get a second swappable version.
func roundTrip(t *testing.T, att *sedspec.Attached, spec *sedspec.Spec) *sedspec.Spec {
	t.Helper()
	data, err := spec.EncodeBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := core.DecodeBinary(att.Dev().Program(), data)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func TestSpecStorePutLookupLoad(t *testing.T) {
	_, att := setup(t, testdev.Options{})
	spec := learn(t, att).Spec
	st, err := sedspec.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	key := sedspec.StoreKey(att, "benign-v1")
	specEvents := stream.Default().Published(stream.KindSpec)
	meta, err := st.Put(spec, sedspec.SpecVersion{
		ProgramHash: key.ProgramHash,
		CorpusHash:  key.CorpusHash,
		CreatedBy:   "learn",
	})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Generation != 1 || meta.Device != spec.Device || meta.Blob == "" {
		t.Fatalf("published meta incomplete: %+v", meta)
	}
	// A fresh publication is fleet-visible telemetry.
	if got := stream.Default().Published(stream.KindSpec); got != specEvents+1 {
		t.Errorf("fresh Put published %d spec events, want 1", got-specEvents)
	}
	recent := stream.Default().Recent(stream.MaskOf(stream.KindSpec), 1)
	if len(recent) != 1 || recent[0].Spec == nil ||
		recent[0].Spec.Generation != meta.Generation || recent[0].Spec.Blob != meta.Blob {
		t.Errorf("spec event payload wrong: %+v", recent)
	}

	// Lookup by content key, Load verifies the blob hash and rebinds.
	got, ok := st.Lookup(key)
	if !ok || got.Blob != meta.Blob {
		t.Fatalf("Lookup failed: %+v ok=%t", got, ok)
	}
	back, err := st.Load(att.Dev().Program(), got)
	if err != nil {
		t.Fatal(err)
	}
	if back.Dot() != spec.Dot() {
		t.Error("loaded spec's ES-CFG differs from the published one")
	}

	// Re-publishing the identical spec under the same key is idempotent.
	again, err := st.Put(spec, sedspec.SpecVersion{
		ProgramHash: key.ProgramHash, CorpusHash: key.CorpusHash, CreatedBy: "learn",
	})
	if err != nil {
		t.Fatal(err)
	}
	if again.Generation != 1 || len(st.Versions(spec.Device)) != 1 {
		t.Errorf("idempotent Put created a new version: %+v", again)
	}
	if got := stream.Default().Published(stream.KindSpec); got != specEvents+1 {
		t.Errorf("idempotent Put re-published a spec event (%d total)", got-specEvents)
	}

	// A different corpus is a different key and a new generation.
	meta2, err := st.Put(spec, sedspec.SpecVersion{
		ProgramHash: key.ProgramHash,
		CorpusHash:  sedspec.StoreKey(att, "benign-v2").CorpusHash,
		CreatedBy:   "learn",
	})
	if err != nil {
		t.Fatal(err)
	}
	if meta2.Generation != 2 {
		t.Errorf("second corpus generation = %d, want 2", meta2.Generation)
	}
	latest, ok := st.Latest(spec.Device)
	if !ok || latest.Generation != 2 {
		t.Errorf("Latest = %+v ok=%t, want generation 2", latest, ok)
	}

	// The index survives a reopen: a second Store on the same directory
	// sees every published version.
	st2, err := sedspec.OpenStore(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := st2.Lookup(key); !ok || got.Blob != meta.Blob {
		t.Errorf("reopened store lost the version: %+v ok=%t", got, ok)
	}
}

// TestStoreDetectsCorruptBlob: Load verifies the content address, and
// LearnCached degrades to a fresh learn when the stored blob is damaged.
func TestStoreDetectsCorruptBlob(t *testing.T) {
	_, att := setup(t, testdev.Options{})
	st, err := sedspec.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, meta, _, err := sedspec.LearnCached(st, att, "benign-v1", benignTrain)
	if err != nil {
		t.Fatal(err)
	}
	blob := filepath.Join(st.Dir(), "blobs", meta.Blob+".spec")
	data, err := os.ReadFile(blob)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(blob, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(att.Dev().Program(), meta); err == nil {
		t.Error("Load accepted a corrupt blob")
	}
	// The cache-hit path notices the damage and relearns.
	spec, _, hit, err := sedspec.LearnCached(st, att, "benign-v1", benignTrain)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("corrupt blob reported as a cache hit")
	}
	if spec == nil || spec.Stats.TrainingRounds == 0 {
		t.Error("fallback learn produced no spec")
	}
}

func TestLearnCachedHitsStore(t *testing.T) {
	st, err := sedspec.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	_, att1 := setup(t, testdev.Options{})
	trainCalls := 0
	counting := func(d *sedspec.Driver) error {
		trainCalls++
		return benignTrain(d)
	}
	spec1, meta1, hit, err := sedspec.LearnCached(st, att1, "benign-v1", counting)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first learn reported a cache hit on an empty store")
	}
	if trainCalls == 0 {
		t.Fatal("miss path did not run the training corpus")
	}

	// Same program, same corpus tag, fresh attachment: cache hit, no
	// training at all.
	_, att2 := setup(t, testdev.Options{})
	trainCalls = 0
	spec2, meta2, hit, err := sedspec.LearnCached(st, att2, "benign-v1", counting)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("relearning the same device+corpus missed the cache")
	}
	if trainCalls != 0 {
		t.Errorf("cache hit ran the training corpus %d times", trainCalls)
	}
	if meta2.Blob != meta1.Blob || meta2.Generation != meta1.Generation {
		t.Errorf("hit returned a different version: %+v vs %+v", meta2, meta1)
	}
	if spec2.Dot() != spec1.Dot() {
		t.Error("cached spec's ES-CFG differs from the learned one")
	}

	// A different corpus tag misses and trains.
	_, att3 := setup(t, testdev.Options{})
	_, meta3, hit, err := sedspec.LearnCached(st, att3, "benign-v2", counting)
	if err != nil {
		t.Fatal(err)
	}
	if hit || trainCalls == 0 {
		t.Errorf("new corpus tag should miss: hit=%t trainCalls=%d", hit, trainCalls)
	}
	if meta3.Generation == meta1.Generation {
		t.Error("new corpus published under the old generation")
	}
}

// TestUnprotectRetiresSharedSession is the regression test for the
// detach bug: Unprotect must Close the session checker, folding its
// counters and recorder into the retired banks, so that a re-
// ProtectShared on the same attachment neither double-counts nor leaks a
// live recorder.
func TestUnprotectRetiresSharedSession(t *testing.T) {
	_, att := setup(t, testdev.Options{})
	spec := learn(t, att).Spec
	reg := obs.NewRegistry()
	sh := sedspec.NewSharedChecker(spec, checker.WithObs(reg))

	sedspec.ProtectShared(att, sh)
	d := sedspec.NewDriver(att)
	if err := benignTrain(d); err != nil {
		t.Fatal(err)
	}
	once := sh.Stats().Rounds
	if once == 0 {
		t.Fatal("no rounds recorded")
	}

	sedspec.Unprotect(att)
	if sh.Sessions() != 0 {
		t.Fatalf("Unprotect left %d sessions open", sh.Sessions())
	}
	if reg.Recorders() != 0 {
		t.Fatalf("Unprotect left %d live recorders registered", reg.Recorders())
	}

	// Protect the same attachment again and repeat the workload: exactly
	// twice the rounds, one live recorder, and a registry aggregate that
	// matches — no double counting across the detach.
	sess := sedspec.ProtectShared(att, sh)
	if err := benignTrain(d); err != nil {
		t.Fatal(err)
	}
	if got := sh.Stats().Rounds; got != 2*once {
		t.Errorf("rounds after re-protect = %d, want %d", got, 2*once)
	}
	if reg.Recorders() != 1 {
		t.Errorf("live recorders = %d, want 1", reg.Recorders())
	}
	// The registry trails a live session by up to 64 unpublished rounds;
	// the session's owner-side read publishes them.
	sess.Snapshot()
	if got := reg.Snapshot().Row("", spec.Device).Rounds; got != 2*once {
		t.Errorf("registry rounds = %d, want %d", got, 2*once)
	}
}

// TestEnhancePipeline drives the full loop the subsystem exists for: a
// deployment in enhancement mode audits a benign-but-untrained command,
// the pipeline replays the audit into a new spec version published to the
// store, and a hot-swap installs it under the live session — after which
// the command passes without a warning and the exploit is still blocked.
func TestEnhancePipeline(t *testing.T) {
	m, att := setup(t, testdev.Options{})
	spec := learn(t, att).Spec
	st, err := sedspec.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := sedspec.StoreKey(att, "benign-v1")
	parent, err := st.Put(spec, sedspec.SpecVersion{
		ProgramHash: key.ProgramHash, CorpusHash: key.CorpusHash, CreatedBy: "learn",
	})
	if err != nil {
		t.Fatal(err)
	}

	sh := sedspec.NewSharedChecker(spec, checker.WithMode(checker.ModeEnhancement))
	sedspec.ProtectShared(att, sh)
	d := sedspec.NewDriver(att)
	if err := benignTrain(d); err != nil {
		t.Fatal(err)
	}
	// The rare diagnostic command warns (it is benign but untrained) and
	// is audited with the request bytes and the generation that checked it.
	if _, err := d.Out8(testdev.PortCmd, testdev.CmdDiag); err != nil {
		t.Fatalf("enhancement mode blocked the diagnostic command: %v", err)
	}
	audit := sh.Audit()
	if len(audit) != 1 {
		t.Fatalf("audit records = %d, want 1", len(audit))
	}
	a := audit[0]
	if a.Strategy != checker.StrategyConditionalJump || !a.Write ||
		a.SpecGen != 1 || len(a.Data) != 1 || a.Data[0] != testdev.CmdDiag {
		t.Fatalf("audit record wrong: %+v", a)
	}

	// Enhance on a fresh instance of the same device program and publish.
	trainCalls := 0
	counting := func(d *sedspec.Driver) error {
		trainCalls++
		return benignTrain(d)
	}
	_, eatt := setup(t, testdev.Options{})
	enhanced, meta, hit, err := sedspec.EnhanceToStore(st, eatt, parent, counting, audit)
	if err != nil {
		t.Fatal(err)
	}
	if hit || trainCalls == 0 {
		t.Fatalf("first enhance should miss and train: hit=%t trainCalls=%d", hit, trainCalls)
	}
	if meta.Parent != parent.Generation || meta.CreatedBy != "enhance" {
		t.Errorf("enhanced meta lineage wrong: %+v", meta)
	}
	// EnhancedVersion's key is the one the child is stored under, so a
	// caller can look the child up without going through LoadOrLearn.
	if want := sedspec.EnhancedVersion(meta.ProgramHash, parent, audit); want.Key() != meta.Key() {
		t.Errorf("EnhancedVersion keys %+v, the child is stored under %+v", want.Key(), meta.Key())
	}
	if len(meta.Warnings) != 1 || meta.Warnings[0].Strategy != checker.StrategyConditionalJump.String() {
		t.Errorf("audit trail not recorded: %+v", meta.Warnings)
	}
	if enhanced.Stats.Commands <= spec.Stats.Commands {
		t.Errorf("enhanced spec learned no new commands: %d vs %d",
			enhanced.Stats.Commands, spec.Stats.Commands)
	}
	// Enhancing the same parent with the same warnings is a cache hit:
	// the stored child is loaded and the training corpus never runs.
	trainCalls = 0
	cached, again, hit, err := sedspec.EnhanceToStore(st, eatt, parent, counting, audit)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || trainCalls != 0 {
		t.Errorf("re-enhance missed the store: hit=%t trainCalls=%d", hit, trainCalls)
	}
	if again.Generation != meta.Generation || again.Blob != meta.Blob {
		t.Errorf("re-enhance returned another version: %+v vs %+v", again, meta)
	}
	if cached.Dot() != enhanced.Dot() {
		t.Error("cached enhanced spec's ES-CFG differs from the learned one")
	}

	// A damaged enhanced blob degrades to a relearn that republishes
	// under the same key and heals the blob, so the next call hits again.
	blob := filepath.Join(st.Dir(), "blobs", meta.Blob+".spec")
	data, err := os.ReadFile(blob)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(blob, data, 0o644); err != nil {
		t.Fatal(err)
	}
	trainCalls = 0
	_, relearned, hit, err := sedspec.EnhanceToStore(st, eatt, parent, counting, audit)
	if err != nil {
		t.Fatalf("enhance over a corrupt blob failed instead of relearning: %v", err)
	}
	if hit || trainCalls == 0 {
		t.Errorf("corrupt blob served as a hit: hit=%t trainCalls=%d", hit, trainCalls)
	}
	if relearned.Key() != meta.Key() || relearned.Generation != meta.Generation {
		t.Errorf("relearn republished under another key or generation: %+v vs %+v", relearned, meta)
	}
	trainCalls = 0
	if _, _, hit, err := sedspec.EnhanceToStore(st, eatt, parent, counting, audit); err != nil || !hit || trainCalls != 0 {
		t.Errorf("enhance after the relearn: hit=%t trainCalls=%d err=%v, want a hit", hit, trainCalls, err)
	}

	// Hot-swap the enhanced version under the running session.
	sh.ClearAudited(audit)
	if err := sh.Swap(enhanced); err != nil {
		t.Fatalf("Swap: %v", err)
	}
	if sh.Generation() != 2 {
		t.Errorf("generation after swap = %d, want 2", sh.Generation())
	}

	// The formerly-warning command now passes silently; the exploit is
	// still blocked; the machine never went down.
	if _, err := d.Out8(testdev.PortCmd, testdev.CmdDiag); err != nil {
		t.Fatalf("diagnostic command blocked after enhancement: %v", err)
	}
	if got := sh.Warnings(); got != nil {
		t.Errorf("enhanced spec still warns: %+v", got)
	}
	err = venomExploit(d, 32)
	var anom *sedspec.Anomaly
	if !errors.As(err, &anom) || anom.Strategy != checker.StrategyParameter {
		t.Fatalf("venom not blocked under the enhanced spec: %v", err)
	}
	if anom.SpecGen != 2 {
		t.Errorf("anomaly spec generation = %d, want 2", anom.SpecGen)
	}
	if !m.Halted() {
		t.Error("parameter anomaly should halt even in enhancement mode")
	}
}

// TestSwapHammerAcceptance is the subsystem's acceptance test: four
// concurrent sessions replay benign-plus-exploit traffic through one
// shared engine while another goroutine hot-swaps between two equivalent
// spec versions at least 100 times. Every exploit must be detected, no
// benign round may be flagged, and every recorded event must carry the
// generation that checked it. Run under -race this also proves the swap
// path is data-race free against the lock-free check path.
func TestSwapHammerAcceptance(t *testing.T) {
	_, latt := setup(t, testdev.Options{})
	specA := learn(t, latt).Spec
	specB := roundTrip(t, latt, specA)

	reg := obs.NewRegistry()
	sh := sedspec.NewSharedChecker(specA, checker.WithObs(reg))

	const n = 4
	iters := 25
	if testing.Short() {
		iters = 5
	}
	p := machine.NewPool(n, lifecycleBuild)
	chks := make([]*checker.Checker, n)
	for i, s := range p.Sessions() {
		// A no-op halt keeps the session serving across blocked exploits;
		// every session adopts each swapped version's compiled threaded
		// stream, racing the RCU publication path.
		chks[i] = sedspec.ProtectShared(s.Attached(), sh, checker.WithHalt(func() {}))
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	var swapErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		specs := [2]*sedspec.Spec{specB, specA}
		for i := 0; ; i++ {
			if err := sh.Swap(specs[i%2]); err != nil {
				swapErr = err
				return
			}
			runtime.Gosched()
			select {
			case <-done:
				if i+1 >= 100 {
					return
				}
			default:
			}
		}
	}()

	err := p.Run(func(s *machine.Session) error {
		d := sedspec.NewDriver(s.Attached())
		for it := 0; it < iters; it++ {
			if err := benignTrain(d); err != nil {
				return fmt.Errorf("session %d iter %d: benign traffic flagged: %w", s.ID(), it, err)
			}
			err := venomExploit(d, 32)
			var anom *sedspec.Anomaly
			if !errors.As(err, &anom) {
				return fmt.Errorf("session %d iter %d: exploit not blocked: %v", s.ID(), it, err)
			}
			if anom.Strategy != checker.StrategyParameter {
				return fmt.Errorf("session %d iter %d: wrong strategy %v", s.ID(), it, anom.Strategy)
			}
			if anom.SpecGen == 0 {
				return fmt.Errorf("session %d iter %d: anomaly without spec generation", s.ID(), it)
			}
		}
		return nil
	})
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if swapErr != nil {
		t.Fatalf("Swap failed mid-hammer: %v", swapErr)
	}

	if sh.SwapCount() < 100 {
		t.Errorf("swaps = %d, want >= 100", sh.SwapCount())
	}
	if sh.Generation() != sh.SwapCount()+1 {
		t.Errorf("generation %d != swaps %d + 1", sh.Generation(), sh.SwapCount())
	}

	// Zero missed detections, zero swap-attributable false anomalies.
	agg := sh.Stats()
	wantBlocked := uint64(n * iters)
	if agg.ParamAnomalies != wantBlocked || agg.Blocked != wantBlocked {
		t.Errorf("detections = %d blocked = %d, want %d each", agg.ParamAnomalies, agg.Blocked, wantBlocked)
	}
	if agg.CondAnomalies != 0 || agg.IndirectAnomalies != 0 || agg.Warnings != 0 {
		t.Errorf("swap-attributable false anomalies: %+v", agg)
	}

	// Every recorded event names the generation that checked it, and the
	// rings witnessed more than one generation.
	gens := map[uint16]bool{}
	for i, c := range chks {
		for _, ev := range c.Recorder().Ring().Snapshot() {
			if ev.SpecGen == 0 {
				t.Fatalf("session %d: event without spec generation: %+v", i, ev)
			}
			gens[ev.SpecGen] = true
		}
	}
	if len(gens) < 2 {
		t.Errorf("events witnessed %d generations, want >= 2 under continuous swapping", len(gens))
	}
	// Swaps reach the fleet row from the engine, their one source.
	h := stream.NewHealth(reg, stream.NewHub())
	h.AddEngine(sh.EngineStatus)
	if row := h.Snapshot().Device(specA.Device); row == nil || row.Swaps != sh.SwapCount() {
		t.Errorf("fleet row = %+v, engine swaps = %d", row, sh.SwapCount())
	}
}

// TestSwapDuringRoundStampsOldGeneration pins the grace-period contract:
// a swap published while a round is mid-check does not retroactively
// change which spec version checked that round — the anomaly carries the
// old generation even though the engine has already moved on.
func TestSwapDuringRoundStampsOldGeneration(t *testing.T) {
	_, att := setup(t, testdev.Options{})
	spec := learn(t, att).Spec
	specB := roundTrip(t, att, spec)
	sh := sedspec.NewSharedChecker(spec)
	genBefore := sh.Generation()

	// The halt hook runs in the middle of the blocking round. It launches
	// a swap from another goroutine and waits for the new version to be
	// published before letting the round finish — so publication is
	// strictly ordered inside this round's check.
	swapDone := make(chan error, 1)
	chk := sedspec.ProtectShared(att, sh, checker.WithHalt(func() {
		go func() { swapDone <- sh.Swap(specB) }()
		for sh.Generation() == genBefore {
			runtime.Gosched()
		}
	}))

	d := sedspec.NewDriver(att)
	if err := benignTrain(d); err != nil {
		t.Fatal(err)
	}
	_, err := d.Out8(testdev.PortCmd, testdev.CmdDiag) // off-spec: blocks mid-round
	var anom *sedspec.Anomaly
	if !errors.As(err, &anom) {
		t.Fatalf("off-spec command not blocked: %v", err)
	}
	if err := <-swapDone; err != nil {
		t.Fatalf("Swap during round: %v", err)
	}

	if anom.SpecGen != genBefore {
		t.Errorf("mid-swap anomaly generation = %d, want the old %d", anom.SpecGen, genBefore)
	}
	if sh.Generation() != genBefore+1 {
		t.Errorf("engine generation = %d, want %d", sh.Generation(), genBefore+1)
	}
	// The very next round adopts the new version.
	if _, err := d.Out8(testdev.PortCmd, testdev.CmdReset); err != nil {
		t.Fatal(err)
	}
	if chk.SpecGen() != genBefore+1 {
		t.Errorf("session generation after swap = %d, want %d", chk.SpecGen(), genBefore+1)
	}
}

// TestRollbackRecoveryAcrossSwap composes rollback recovery with
// hot-swap: an exploit blocked before and after a swap rolls the machine
// back both times, each anomaly naming the spec version that actually
// checked it, and the tenant keeps being served throughout.
func TestRollbackRecoveryAcrossSwap(t *testing.T) {
	m, att := setup(t, testdev.Options{})
	spec := learn(t, att).Spec
	specB := roundTrip(t, att, spec)
	sh := sedspec.NewSharedChecker(spec)
	chk, guard := sedspec.ProtectSharedWithRollback(att, sh, 8)

	d := sedspec.NewDriver(att)
	if err := benignTrain(d); err != nil {
		t.Fatal(err)
	}

	attack := func(wantGen uint64, wantRecoveries int) {
		t.Helper()
		err := venomExploit(d, 32)
		var anom *sedspec.Anomaly
		if !errors.As(err, &anom) {
			t.Fatalf("exploit not blocked: %v", err)
		}
		if anom.SpecGen != wantGen {
			t.Errorf("anomaly generation = %d, want %d", anom.SpecGen, wantGen)
		}
		if guard.Recoveries != wantRecoveries {
			t.Errorf("recoveries = %d, want %d", guard.Recoveries, wantRecoveries)
		}
		if m.Halted() {
			t.Fatal("rollback should leave the machine running")
		}
		if err := benignTrain(d); err != nil {
			t.Fatalf("post-recovery benign traffic blocked: %v", err)
		}
	}

	attack(1, 1)
	if err := sh.Swap(specB); err != nil {
		t.Fatalf("Swap: %v", err)
	}
	attack(2, 2)
	if got := chk.Stats().Blocked; got != 2 {
		t.Errorf("blocked attempts = %d, want 2", got)
	}
}
