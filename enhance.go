package sedspec

import (
	"fmt"

	"sedspec/internal/checker"
	"sedspec/internal/core"
	"sedspec/internal/interp"
	"sedspec/internal/ir"
	"sedspec/internal/machine"
	"sedspec/internal/specstore"
)

// Spec lifecycle facade: the versioned spec store plus the enhancement
// pipeline that turns a running deployment's audited warnings into a new
// spec version.
//
// The paper's enhancement mode lets benign-but-untrained commands through
// with a warning; the pipeline here closes the loop: collect the audited
// warning requests from a sealed checker (Checker.Audit / SharedChecker
// .Audit), replay them after the original training corpus (resuming the
// training run's Checkpoint), and publish the resulting spec as a new
// store version carrying the audit trail. SharedChecker.Swap then
// installs it under the live sessions without dropping a check.

// Store re-exports so facade users need not import internal packages.
type (
	// SpecStore is a content-addressed, versioned on-disk spec store.
	SpecStore = specstore.Store
	// SpecVersion is one published spec version's metadata.
	SpecVersion = specstore.VersionMeta
	// SpecKey content-addresses a spec by device, program hash, and
	// corpus hash.
	SpecKey = specstore.Key
	// WarningRecord is one audited warning in a version's audit trail.
	WarningRecord = specstore.WarningRecord
	// AuditRecord is one audited warning captured by a checker.
	AuditRecord = checker.AuditRecord
)

// OpenStore opens (creating if needed) a spec store rooted at dir.
func OpenStore(dir string) (*SpecStore, error) { return specstore.Open(dir) }

// StoreKey computes the content-address key for a device attachment and a
// corpus tag: the device program's content hash plus the corpus tag's
// hash. Learning the same program with the same corpus lands on the same
// key, which is what makes LearnCached's cache hit sound.
func StoreKey(att *machine.Attached, corpus string) SpecKey {
	return LearnedVersion(att.Dev().Program(), corpus).Key()
}

// LearnedVersion is the store metadata of the spec a fresh Learn of
// prog over the corpus tag publishes; its key is StoreKey's.
func LearnedVersion(prog *ir.Program, corpus string) SpecVersion {
	return SpecVersion{
		Device:      prog.Name,
		ProgramHash: specstore.ProgramHash(prog),
		CorpusHash:  specstore.CorpusHash(corpus),
		CreatedBy:   "learn",
	}
}

// LearnCached is Learn backed by the store: if a spec for this
// device+corpus key was already published, it is loaded from the store
// (hit=true) without running the training corpus; otherwise Learn runs
// and the result is published under the key. The corpus tag must
// deterministically identify the training input — same tag, same
// training behaviour.
func LearnCached(st *SpecStore, att *machine.Attached, corpus string, train TrainFunc) (spec *core.Spec, meta SpecVersion, hit bool, err error) {
	prog := att.Dev().Program()
	return LoadOrLearn(st, prog, LearnedVersion(prog, corpus), func() (*core.Spec, error) {
		return Learn(att, train)
	})
}

// LoadOrLearn is the store-first step under LearnCached and
// EnhanceToStore. When want's key (prog's device plus want's program
// and corpus hashes) is already published, the stored blob is
// hash-checked and decoded against prog and learn never runs
// (hit=true). Otherwise — or when the stored blob is missing or
// corrupt — learn runs and its spec is published with want's metadata
// under that same key. A caller that already holds the program and its
// hash calls this directly, so a hit builds no device and hashes no
// program.
func LoadOrLearn(st *SpecStore, prog *ir.Program, want SpecVersion, learn func() (*core.Spec, error)) (spec *core.Spec, meta SpecVersion, hit bool, err error) {
	want.Device = prog.Name
	if vm, ok := st.Lookup(want.Key()); ok {
		if spec, err := st.Load(prog, vm); err == nil {
			return spec, vm, true, nil
		}
		// A corrupt or missing blob falls through to a fresh learn, which
		// republishes under the same key.
	}
	spec, err = learn()
	if err != nil {
		return nil, SpecVersion{}, false, err
	}
	meta, err = st.Put(spec, want)
	if err != nil {
		return nil, SpecVersion{}, false, err
	}
	return spec, meta, false, nil
}

// replayAudit issues one audited warning request through the driver,
// re-creating the I/O that tripped the check.
func replayAudit(d *Driver, a *AuditRecord) error {
	var req *interp.Request
	if a.Write {
		req = interp.NewWrite(a.Space, a.Addr, a.Data)
	} else {
		req = interp.NewRead(a.Space, a.Addr)
	}
	if _, err := d.dispatch(req); err != nil {
		return fmt.Errorf("sedspec: enhance: replay audited round %d: %w", a.Round, err)
	}
	return nil
}

// Enhance rebuilds the specification with the audited warnings folded
// into the training corpus: Train runs the original training function,
// then Resume replays each audited request in capture order on the
// trained machine, so the previously unobserved paths join the ES-CFG.
// The spec is the one a single learn of the composed corpus (training,
// then the audit) builds. Like any training corpus, the composed corpus
// must be deterministic — AuditRecord carries a private copy of each
// request. A caller that enhances one device repeatedly keeps Train's
// checkpoint and resumes it per audit instead, running training once.
//
// The attachment should be a fresh (or reset) instance of the same
// device program the audit came from; Train resets the device before its
// run and Resume after learning.
func Enhance(att *machine.Attached, train TrainFunc, audit []AuditRecord) (*core.Spec, error) {
	if len(audit) == 0 {
		return nil, fmt.Errorf("sedspec: enhance: no audited warnings to replay")
	}
	cp, err := Train(att, train)
	if err != nil {
		return nil, err
	}
	r, err := cp.Resume(att, audit)
	if err != nil {
		return nil, err
	}
	return r.Spec, nil
}

// ChainAudit returns the audited requests that enhanced parent from its
// learned root, oldest first: walking Parent links through st, each
// enhanced version on the chain contributes the warnings it was built
// from. Replaying them before a new audit makes an enhanced child of
// parent keep every enhancement parent has. A learned parent has an
// empty chain.
func ChainAudit(st *SpecStore, parent SpecVersion) ([]AuditRecord, error) {
	if parent.CreatedBy != "enhance" {
		return nil, nil
	}
	byGen := map[uint64]SpecVersion{}
	for _, v := range st.Versions(parent.Device) {
		byGen[v.Generation] = v
	}
	var links [][]WarningRecord
	for v := parent; v.CreatedBy == "enhance"; {
		links = append(links, v.Warnings)
		p, ok := byGen[v.Parent]
		if !ok || p.Generation >= v.Generation {
			return nil, fmt.Errorf("sedspec: enhance: generation %d of %s names parent %d, which is not an older stored version",
				v.Generation, v.Device, v.Parent)
		}
		v = p
	}
	var audit []AuditRecord
	for i := len(links) - 1; i >= 0; i-- {
		for _, w := range links[i] {
			audit = append(audit, AuditRecord{Anomaly: checker.Anomaly{Round: w.Round},
				Space: interp.Space(w.Space), Addr: w.Addr, Write: w.Write, Data: w.Data})
		}
	}
	return audit, nil
}

// warningRecords converts captured audit records into the store's
// audit-trail form.
func warningRecords(audit []AuditRecord) []WarningRecord {
	out := make([]WarningRecord, len(audit))
	for i, a := range audit {
		out[i] = WarningRecord{
			Strategy: a.Strategy.String(),
			Session:  a.Session,
			Round:    a.Round,
			SpecGen:  a.SpecGen,
			Space:    int(a.Space),
			Addr:     a.Addr,
			Write:    a.Write,
			Data:     a.Data,
			Detail:   a.Detail,
		}
	}
	return out
}

// EnhancedVersion is the store metadata of the child spec that
// enhancing parent with audit produces on a program with the given
// content hash: its key extends the parent's corpus hash with the audit
// trail, so enhancing the same parent with the same warnings lands on
// the same key. When parent is itself enhanced, the child also replays
// the parent's chain (ChainAudit), and its key says so: the parent's
// corpus hash is tagged before it is extended, so no child a build
// learned without the chain is found under it. A learned parent's
// child keeps the untagged key.
func EnhancedVersion(programHash string, parent SpecVersion, audit []AuditRecord) SpecVersion {
	warns := warningRecords(audit)
	base := parent.CorpusHash
	if parent.CreatedBy == "enhance" {
		base = "chain-replay " + base
	}
	return SpecVersion{
		Device:      parent.Device,
		ProgramHash: programHash,
		CorpusHash:  specstore.EnhancedCorpusHash(base, warns),
		Parent:      parent.Generation,
		CreatedBy:   "enhance",
		Warnings:    warns,
	}
}

// EnhanceToStore runs the enhancement pipeline end to end: derive the
// child key from the parent version's corpus plus the audit trail, load
// the child from the store if it was already published (hit=true), and
// otherwise learn it and publish the result as a new store version
// recording its parent generation and the warnings that drove it. A
// miss trains once and replays the warnings of parent's enhance chain
// (ChainAudit), oldest first, then the new audit, so the child keeps
// every enhancement its key claims to extend. The returned spec is ready
// for SharedChecker.Swap.
func EnhanceToStore(st *SpecStore, att *machine.Attached, parent SpecVersion, train TrainFunc, audit []AuditRecord) (spec *core.Spec, meta SpecVersion, hit bool, err error) {
	prog := att.Dev().Program()
	want := EnhancedVersion(specstore.ProgramHash(prog), parent, audit)
	return LoadOrLearn(st, prog, want, func() (*core.Spec, error) {
		chain, err := ChainAudit(st, parent)
		if err != nil {
			return nil, err
		}
		return Enhance(att, train, append(chain, audit...))
	})
}
