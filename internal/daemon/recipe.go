package daemon

import (
	"fmt"
	"strings"
	"sync/atomic"

	"sedspec"
	"sedspec/internal/checker"
	"sedspec/internal/core"
	"sedspec/internal/cvesim"
	"sedspec/internal/ir"
	"sedspec/internal/machine"
	"sedspec/internal/specstore"
	"sedspec/internal/workload"
)

// recipe is one install corpus resolved to the device recipe that
// trains it, plus the program identity every store access needs: the
// program build's devices run and the learned version it keys to.
// Device packages build each variant's program once per process and
// never write it after Build, so that one program is the decode target
// for every store hit, and a daemon resolves each recipe once and
// shares it read-only across every tenant and engine.
type recipe struct {
	device string
	corpus string
	build  machine.BuildFunc
	train  sedspec.TrainFunc
	target *workload.Target // benign corpus; nil for cve corpora
	poc    *cvesim.PoC      // cve corpus; nil for benign
	prog   *ir.Program
	want   sedspec.SpecVersion // what a fresh learn of prog publishes

	// learned and last memo the compiled forms of two of the recipe's
	// versions, each keyed by its blob's content address: learned holds
	// the learned blob, last the most recent other version (an enhanced
	// child) the recipe published. Every tenant and engine enforcing
	// the corpus shares these copies, so a warm install, enhance or
	// rollback publishes one without decoding or sealing.
	learned, last atomic.Pointer[compiledBlob]
}

// compiledBlob is a compiled spec and the content address of the blob
// it was decoded from (or published as).
type compiledBlob struct {
	blob string
	cv   *checker.Compiled
}

// resolveRecipe maps an install request onto its recipe. The first
// call for a corpus reads the program from a build and hashes it;
// later calls return the same recipe.
func (d *Daemon) resolveRecipe(device, corpus string) (*recipe, error) {
	rc := &recipe{corpus: corpus}
	if id, ok := strings.CutPrefix(corpus, "cve:"); ok {
		p := cvesim.ByCVE(id)
		if p == nil {
			return nil, fmt.Errorf("daemon: unknown CVE %q", id)
		}
		if device != "" && device != p.Device {
			return nil, fmt.Errorf("daemon: %s targets device %q, not %q", id, p.Device, device)
		}
		rc.device, rc.build, rc.train, rc.poc = p.Device, p.Build, p.Train, p
	} else {
		if corpus != "benign" {
			return nil, fmt.Errorf("daemon: unknown corpus %q (want \"benign\" or \"cve:<ID>\")", corpus)
		}
		tg := workload.TargetByName(device, true)
		if tg == nil {
			return nil, fmt.Errorf("daemon: unknown device %q", device)
		}
		rc.device, rc.build, rc.train, rc.target = tg.Name, tg.Build, tg.Train, tg
	}

	id := rc.device + "/" + corpus
	d.recipeMu.Lock()
	defer d.recipeMu.Unlock()
	if have := d.recipes[id]; have != nil {
		return have, nil
	}
	dev, _ := rc.build()
	rc.prog = dev.Program()
	rc.want = sedspec.LearnedVersion(rc.prog, corpus)
	d.recipes[id] = rc
	return rc, nil
}

// attach builds a throwaway machine around a fresh device from the
// recipe: the learning target of a store miss.
func (rc *recipe) attach() *machine.Attached {
	dev, aopts := rc.build()
	return machine.New(machine.WithMemory(1<<20)).Attach(dev, aopts...)
}

// load returns want's version in st's namespace, compiled. A stored
// version goes through compiled, so the tenant's blob is still read and
// hash-checked. A miss, or a blob that fails the check, takes
// sedspec.LoadOrLearn's path: learn (sedspec.Learn for the recipe's
// own version, sedspec.Enhance for a child) runs and its spec is
// published under want's key, which also heals a damaged blob.
func (rc *recipe) load(st *specstore.Store, want sedspec.SpecVersion, learn func() (*core.Spec, error)) (cv *checker.Compiled, meta sedspec.SpecVersion, hit bool, err error) {
	if vm, ok := st.Lookup(want.Key()); ok {
		if cv, err := rc.compiled(st, vm); err == nil {
			return cv, vm, true, nil
		}
	}
	spec, meta, hit, err := sedspec.LoadOrLearn(st, rc.prog, want, learn)
	if err != nil {
		return nil, meta, false, err
	}
	if cv := rc.memo(meta.Blob); cv != nil {
		return cv, meta, hit, nil
	}
	return rc.remember(meta, checker.Compile(spec)), meta, hit, nil
}

// learn trains a fresh device on the recipe's corpus.
func (rc *recipe) learn() (*core.Spec, error) { return sedspec.Learn(rc.attach(), rc.train) }

// compiled returns the stored version meta compiled against the
// recipe's program. The blob is read and its hash checked on every
// call. When either memo slot holds that blob, the slot's compiled
// copy is returned. Otherwise the blob is decoded (which validates it)
// and compiled, and the result fills the slot meta belongs in.
func (rc *recipe) compiled(st *specstore.Store, meta specstore.VersionMeta) (*checker.Compiled, error) {
	data, err := st.Read(meta)
	if err != nil {
		return nil, err
	}
	if cv := rc.memo(meta.Blob); cv != nil {
		return cv, nil
	}
	spec, err := core.DecodeBinary(rc.prog, data)
	if err != nil {
		return nil, fmt.Errorf("specstore: load gen %d: %w", meta.Generation, err)
	}
	return rc.remember(meta, checker.Compile(spec)), nil
}

// memo returns the compiled copy of blob from either slot, or nil.
func (rc *recipe) memo(blob string) *checker.Compiled {
	for _, slot := range [...]*atomic.Pointer[compiledBlob]{&rc.learned, &rc.last} {
		if m := slot.Load(); m != nil && m.blob == blob {
			return m.cv
		}
	}
	return nil
}

// remember puts cv in the slot meta belongs in (learned for the
// recipe's own key, last for any other) as the compiled form of its
// blob and returns it, unless the slot already holds that blob: then
// the slot's copy wins, so requests racing on a cold version still end
// up sharing one compiled copy.
func (rc *recipe) remember(meta specstore.VersionMeta, cv *checker.Compiled) *checker.Compiled {
	slot := &rc.last
	if meta.Key() == rc.want.Key() {
		slot = &rc.learned
	}
	for {
		m := slot.Load()
		if m != nil && m.blob == meta.Blob {
			return m.cv
		}
		if slot.CompareAndSwap(m, &compiledBlob{blob: meta.Blob, cv: cv}) {
			return cv
		}
	}
}
