package daemon

import (
	"fmt"
	"strings"

	"sedspec"
	"sedspec/internal/bench"
	"sedspec/internal/cvesim"
	"sedspec/internal/ir"
	"sedspec/internal/machine"
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
	target *bench.Target // benign corpus; nil for cve corpora
	poc    *cvesim.PoC   // cve corpus; nil for benign
	prog   *ir.Program
	want   sedspec.SpecVersion // what a fresh learn of prog publishes
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
