package daemon

import (
	"fmt"
	"strings"
	"sync/atomic"

	"sedspec"
	"sedspec/internal/bench"
	"sedspec/internal/cvesim"
	"sedspec/internal/ir"
	"sedspec/internal/machine"
)

// recipe is one install corpus resolved to the device recipe that
// trains it, plus the program identity every store access needs: one
// finalized program built from build and the learned version it keys
// to. Recipes are static Go code and ProgramHash is deterministic
// across builds, so a daemon resolves each recipe once and shares it
// read-only across every tenant and engine; programs are never written
// after Finalize, so the one program is the decode target for every
// store hit.
type recipe struct {
	device string
	corpus string
	build  machine.BuildFunc
	train  sedspec.TrainFunc
	target *bench.Target // benign corpus; nil for cve corpora
	poc    *cvesim.PoC   // cve corpus; nil for benign
	prog   *ir.Program
	want   sedspec.SpecVersion // what a fresh learn of prog publishes
	// spare is the device prog was read from, until the first store
	// miss learns on it.
	spare atomic.Pointer[builtDevice]
}

// builtDevice is one build's output, not yet attached.
type builtDevice struct {
	dev  machine.Device
	opts []machine.AttachOption
}

// resolveRecipe maps an install request onto its recipe. The first
// call for a corpus builds the program and hashes it; later calls
// return the same recipe.
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
		tg := bench.TargetByName(device, true)
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
	dev, aopts := rc.build()
	rc.prog = dev.Program()
	rc.want = sedspec.LearnedVersion(rc.prog, corpus)
	rc.spare.Store(&builtDevice{dev, aopts})
	d.recipes[id] = rc
	return rc, nil
}

// attach builds a throwaway machine around a device from the recipe:
// the learning target of a store miss. The first miss learns on the
// device resolveRecipe built, so a cold install builds the device once;
// later misses build a fresh one.
func (rc *recipe) attach() *machine.Attached {
	m := machine.New(machine.WithMemory(1 << 20))
	if b := rc.spare.Swap(nil); b != nil {
		return m.Attach(b.dev, b.opts...)
	}
	dev, aopts := rc.build()
	return m.Attach(dev, aopts...)
}
