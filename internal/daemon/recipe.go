package daemon

import (
	"fmt"
	"strings"
	"sync"
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

// recipe is one install corpus resolved to its device's corpus cell and
// the version a learn of it publishes. A daemon resolves each recipe
// once and shares it across every tenant and engine. last memos the
// compiled form of the most recent other version (an enhanced child)
// the recipe published, keyed by its blob's content address.
type recipe struct {
	*corpusCell
	corpus string
	poc    *cvesim.PoC         // cve corpus; nil for benign
	want   sedspec.SpecVersion // what a fresh learn of prog publishes
	last   atomic.Pointer[compiledBlob]
}

// corpusCell is what every recipe of one device shares. All corpora of
// a device train its light benign target, and a spec is a deterministic
// function of the program and corpus, so the daemon runs that training
// once per device: cp is the run's checkpoint, blob the spec learned
// from it (both under mu), and each recipe publishes blob under its own
// key while every cold enhance resumes cp. prog is the device package's
// shared program, the decode target of every hit; learned memos the
// compiled blob for every engine of the device.
type corpusCell struct {
	target   *workload.Target // build, training corpus, benign sessions
	prog     *ir.Program
	progHash string
	recipes  map[string]*recipe // by corpus, under the daemon's recipeMu

	mu      sync.Mutex
	cp      *sedspec.Checkpoint
	blob    []byte
	trains  int
	learned atomic.Pointer[compiledBlob]
}

// compiledBlob is a compiled spec and the content address of the blob
// it was decoded from (or published as).
type compiledBlob struct {
	blob string
	cv   *checker.Compiled
}

// resolveRecipe maps an install request onto its recipe. The first call
// for a device reads the program from a build and hashes it.
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
		device, rc.poc = p.Device, p
	} else if corpus != "benign" {
		return nil, fmt.Errorf("daemon: unknown corpus %q (want \"benign\" or \"cve:<ID>\")", corpus)
	}
	tg := workload.TargetByName(device, true)
	if tg == nil {
		return nil, fmt.Errorf("daemon: unknown device %q", device)
	}

	d.recipeMu.Lock()
	defer d.recipeMu.Unlock()
	c := d.cells[tg.Name]
	if c == nil {
		dev, _ := tg.Build()
		c = &corpusCell{target: tg, prog: dev.Program(), recipes: map[string]*recipe{}}
		c.progHash = specstore.ProgramHash(c.prog)
		d.cells[tg.Name] = c
	}
	if have := c.recipes[corpus]; have != nil {
		return have, nil
	}
	rc.corpusCell = c
	rc.want = sedspec.SpecVersion{Device: c.prog.Name, ProgramHash: c.progHash,
		CorpusHash: specstore.CorpusHash(corpus), CreatedBy: "learn"}
	c.recipes[corpus] = rc
	return rc, nil
}

// attach builds a throwaway machine around a fresh device: the learning
// target of a store miss.
func (c *corpusCell) attach() *machine.Attached {
	dev, aopts := c.target.Build()
	return machine.New(machine.WithMemory(1<<20)).Attach(dev, aopts...)
}

// encoded returns the cell's learned blob: a Resume of the checkpoint
// that replays nothing, run on the first call only.
func (c *corpusCell) encoded() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.blob == nil {
		att := c.attach()
		cp, err := c.checkpointLocked(att)
		if err != nil {
			return nil, err
		}
		if c.blob, err = encode(cp.Resume(att, nil)); err != nil {
			return nil, err
		}
	}
	return c.blob, nil
}

// enhanced returns the encoding of the spec the cell's training corpus
// followed by audit learns: a Resume of the checkpoint on a fresh
// machine, which trains only when the cell has no checkpoint yet (its
// learned blob came from the tenant's store).
func (c *corpusCell) enhanced(audit []sedspec.AuditRecord) ([]byte, error) {
	att := c.attach()
	c.mu.Lock()
	cp, err := c.checkpointLocked(att)
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return encode(cp.Resume(att, audit))
}

// checkpointLocked returns the cell's training checkpoint, running the
// training corpus on att the first time.
func (c *corpusCell) checkpointLocked(att *machine.Attached) (*sedspec.Checkpoint, error) {
	if c.cp == nil {
		c.trains++
		cp, err := sedspec.Train(att, c.target.Train)
		if err != nil {
			return nil, err
		}
		c.cp = cp
	}
	return c.cp, nil
}

// encode returns a learned spec's binary encoding.
func encode(r *sedspec.LearnResult, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return r.Spec.EncodeBinary()
}

// load returns want's version in st's namespace, compiled, through
// compiled (which reads and hash-checks the tenant's blob). On a miss,
// or a blob that fails the check, learn's bytes are first published
// under want's key, which also heals a damaged blob.
func (rc *recipe) load(st *specstore.Store, want sedspec.SpecVersion, learn func() ([]byte, error)) (cv *checker.Compiled, meta sedspec.SpecVersion, hit bool, err error) {
	if vm, ok := st.Lookup(want.Key()); ok {
		if cv, err := rc.compiled(st, vm); err == nil {
			return cv, vm, true, nil
		}
	}
	data, err := learn()
	if err != nil {
		return nil, meta, false, err
	}
	if meta, err = st.PutEncoded(data, want); err != nil {
		return nil, meta, false, err
	}
	cv, err = rc.compiled(st, meta)
	return cv, meta, false, err
}

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

// remember puts cv in the slot meta belongs in (the cell's learned slot
// for the recipe's own key, last for any other) as the compiled form
// of its blob and returns it, unless the slot already holds that blob:
// then the slot's copy wins, so requests racing on a cold version still
// end up sharing one compiled copy.
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
