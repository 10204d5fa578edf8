// Package specstore is the spec lifecycle subsystem: a content-addressed,
// versioned on-disk store of learned execution specifications.
//
// The paper's deployment model separates learning (offline, against a
// benign training corpus) from enforcement (online, per I/O). The store is
// the artifact channel between the two: a spec learned once for a
// (device program, training corpus) pair is persisted as a binary blob and
// keyed by the content hashes of both inputs, so relearning the same
// device+corpus is a cache hit rather than a fresh training run. Each
// published version carries generation metadata and — for versions produced
// by the enhancement pipeline — the audit trail of warnings that drove the
// relearn, which is what lets an operator answer "why did the spec change"
// after the fact.
//
// Layout under the store directory:
//
//	index.json         version metadata, append-ordered
//	blobs/<sha256>.spec binary spec blobs (core.Spec EncodeBinary form)
package specstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"sedspec/internal/core"
	"sedspec/internal/ir"
	"sedspec/internal/obs/stream"
)

// Key identifies a spec by the content of its inputs: the device program
// it was learned against and the training corpus that produced it.
type Key struct {
	Device      string `json:"device"`
	ProgramHash string `json:"programHash"`
	CorpusHash  string `json:"corpusHash"`
}

// WarningRecord is one audited warning that contributed to an enhanced
// spec version: the I/O request that tripped a non-blocking check in
// enhancement mode, replayed into the training corpus of the child spec.
type WarningRecord struct {
	Strategy string `json:"strategy"`
	Session  int    `json:"session"`
	Round    uint64 `json:"round"`
	SpecGen  uint64 `json:"specGen"`
	Space    int    `json:"space"`
	Addr     uint64 `json:"addr"`
	Write    bool   `json:"write"`
	Data     []byte `json:"data,omitempty"`
	Detail   string `json:"detail,omitempty"`
}

// VersionMeta describes one published spec version.
type VersionMeta struct {
	Device      string `json:"device"`
	Generation  uint64 `json:"generation"`
	ProgramHash string `json:"programHash"`
	CorpusHash  string `json:"corpusHash"`
	// Blob is the content address: the hex sha256 of the binary encoding.
	Blob string `json:"blob"`
	// Parent is the generation this version was enhanced from (0 for
	// versions created by a fresh learn).
	Parent uint64 `json:"parent,omitempty"`
	// CreatedBy records the pipeline that produced the version: "learn"
	// for a fresh training run, "enhance" for the warning-replay pipeline.
	CreatedBy string `json:"createdBy"`
	// Warnings is the audit trail: the warnings whose replay produced this
	// version (enhance only).
	Warnings []WarningRecord `json:"warnings,omitempty"`
}

// Key returns the content-address key of the version.
func (m VersionMeta) Key() Key {
	return Key{Device: m.Device, ProgramHash: m.ProgramHash, CorpusHash: m.CorpusHash}
}

type indexFile struct {
	Versions []VersionMeta `json:"versions"`
}

// validate rejects an index put could not have written: an entry whose
// blob is not a content address (so its path could leave blobs/), or
// two entries claiming one (device, generation).
func (x *indexFile) validate() error {
	type version struct {
		device string
		gen    uint64
	}
	seen := make(map[version]bool, len(x.Versions))
	for i, v := range x.Versions {
		if !isBlobName(v.Blob) {
			return fmt.Errorf("entry %d (%s generation %d): blob %q is not a hex sha256", i, v.Device, v.Generation, v.Blob)
		}
		k := version{v.Device, v.Generation}
		if seen[k] {
			return fmt.Errorf("entry %d (%s generation %d): generation listed twice", i, v.Device, v.Generation)
		}
		seen[k] = true
	}
	return nil
}

// isBlobName reports whether s is a lowercase hex sha256, the only blob
// name put writes.
func isBlobName(s string) bool {
	if len(s) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Store is an open spec store. All methods are safe for concurrent use.
type Store struct {
	mu  sync.Mutex
	dir string
	idx indexFile
	// tenant is the namespace this store belongs to (set by
	// OpenNamespace, empty for a root store); stamped on published
	// KindSpec events.
	tenant string
	// hub overrides the publication hub (SetStream); nil selects
	// stream.Default() at publish time.
	hub    *stream.Hub
	hubSet bool
}

// Open opens (creating if needed) a spec store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
		return nil, fmt.Errorf("specstore: open %s: %w", dir, err)
	}
	st := &Store{dir: dir}
	data, err := os.ReadFile(filepath.Join(dir, "index.json"))
	switch {
	case os.IsNotExist(err):
	case err != nil:
		return nil, fmt.Errorf("specstore: open %s: %w", dir, err)
	default:
		if err := json.Unmarshal(data, &st.idx); err != nil {
			return nil, fmt.Errorf("specstore: open %s: corrupt index: %w", dir, err)
		}
		if err := st.idx.validate(); err != nil {
			return nil, fmt.Errorf("specstore: open %s: corrupt index: %w", dir, err)
		}
	}
	return st, nil
}

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.dir }

// Tenant returns the namespace the store was opened under ("" for a
// root store).
func (st *Store) Tenant() string { return st.tenant }

// SetStream selects the telemetry hub the store publishes KindSpec
// events into (default stream.Default()). SetStream(nil) disables
// publication. Call before sharing the store across goroutines.
func (st *Store) SetStream(h *stream.Hub) {
	st.hub, st.hubSet = h, true
}

func (st *Store) blobPath(blob string) string {
	return filepath.Join(st.dir, "blobs", blob+".spec")
}

// persistIndex writes index.json atomically (write-to-temp + rename).
// Caller holds st.mu.
func (st *Store) persistIndex() error {
	data, err := json.MarshalIndent(&st.idx, "", " ")
	if err != nil {
		return fmt.Errorf("specstore: encode index: %w", err)
	}
	tmp := filepath.Join(st.dir, "index.json.tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("specstore: write index: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(st.dir, "index.json")); err != nil {
		return fmt.Errorf("specstore: commit index: %w", err)
	}
	return nil
}

// Put publishes a spec's binary encoding under meta via PutEncoded.
func (st *Store) Put(spec *core.Spec, meta VersionMeta) (VersionMeta, error) {
	data, err := spec.EncodeBinary()
	if err != nil {
		return VersionMeta{}, fmt.Errorf("specstore: put: %w", err)
	}
	meta.Device = spec.Device
	return st.PutEncoded(data, meta)
}

// PutEncoded publishes a spec version for meta.Device (required) from its
// binary encoding, content-addressed by its hash; meta.Blob and
// meta.Generation (the device's next) are filled in. Publishing a (key,
// blob) that already exists is idempotent and returns that version.
func (st *Store) PutEncoded(data []byte, meta VersionMeta) (VersionMeta, error) {
	if meta.Device == "" {
		return VersionMeta{}, fmt.Errorf("specstore: put: version names no device")
	}
	m, fresh, err := st.put(data, meta)
	if err == nil && fresh {
		hub := st.hub
		if !st.hubSet {
			hub = stream.Default()
		}
		// A fresh generation landing in the store is a fleet-visible
		// lifecycle moment: operators tailing the stream see enhancement
		// pipelines produce versions before any engine swaps to them.
		hub.Publish(stream.Event{
			Kind:    stream.KindSpec,
			Tenant:  st.tenant,
			Device:  m.Device,
			Session: -1,
			SpecGen: m.Generation,
			Spec: &stream.SpecInfo{
				Generation: m.Generation,
				Parent:     m.Parent,
				CreatedBy:  m.CreatedBy,
				Blob:       m.Blob,
			},
		})
	}
	return m, err
}

func (st *Store) put(data []byte, meta VersionMeta) (VersionMeta, bool, error) {
	sum := sha256.Sum256(data)
	blob := hex.EncodeToString(sum[:])

	st.mu.Lock()
	defer st.mu.Unlock()

	meta.Blob = blob
	var gen uint64
	for _, v := range st.idx.Versions {
		if v.Device != meta.Device {
			continue
		}
		if v.Generation > gen {
			gen = v.Generation
		}
		if v.Blob == blob && v.ProgramHash == meta.ProgramHash && v.CorpusHash == meta.CorpusHash {
			// The version is already published; only its blob may need
			// repair (a republish after Read found it damaged).
			if err := st.writeBlob(blob, data); err != nil {
				return VersionMeta{}, false, err
			}
			return v, false, nil
		}
	}
	meta.Generation = gen + 1

	if err := st.writeBlob(blob, data); err != nil {
		return VersionMeta{}, false, err
	}

	st.idx.Versions = append(st.idx.Versions, meta)
	if err := st.persistIndex(); err != nil {
		return VersionMeta{}, false, err
	}
	return meta, true, nil
}

// writeBlob makes the blob file named blob hold data (whose sha256 is
// blob). An intact file is left alone; a missing one, or one whose bytes
// no longer hash to its name, is rewritten atomically (write-to-temp +
// rename), so republishing a version's bytes heals a corrupt blob.
func (st *Store) writeBlob(blob string, data []byte) error {
	path := st.blobPath(blob)
	if old, err := os.ReadFile(path); err == nil && blobIntact(old, blob) {
		return nil
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("specstore: write blob: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("specstore: commit blob: %w", err)
	}
	return nil
}

// blobIntact reports whether data still hashes to its content address.
func blobIntact(data []byte, blob string) bool {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]) == blob
}

// Lookup returns the newest version matching the key, if any. This is the
// cache-hit path: a caller about to learn checks Lookup first and loads
// the blob instead of training when the same program+corpus was already
// learned.
func (st *Store) Lookup(key Key) (VersionMeta, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := len(st.idx.Versions) - 1; i >= 0; i-- {
		if st.idx.Versions[i].Key() == key {
			return st.idx.Versions[i], true
		}
	}
	return VersionMeta{}, false
}

// Latest returns the newest version for the device, if any.
func (st *Store) Latest(device string) (VersionMeta, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	var best VersionMeta
	found := false
	for _, v := range st.idx.Versions {
		if v.Device == device && (!found || v.Generation > best.Generation) {
			best, found = v, true
		}
	}
	return best, found
}

// Versions returns all versions for the device in generation order.
func (st *Store) Versions(device string) []VersionMeta {
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []VersionMeta
	for _, v := range st.idx.Versions {
		if v.Device == device {
			out = append(out, v)
		}
	}
	return out
}

// Load reads a version's blob and rebinds it to the device program.
func (st *Store) Load(prog *ir.Program, meta VersionMeta) (*core.Spec, error) {
	data, err := st.Read(meta)
	if err != nil {
		return nil, err
	}
	spec, err := core.DecodeBinary(prog, data)
	if err != nil {
		return nil, fmt.Errorf("specstore: load gen %d: %w", meta.Generation, err)
	}
	return spec, nil
}

// Read returns a version's blob bytes after checking that they still
// hash to the version's content address. It is the verify-only half of
// Load: a caller that already holds the decoded form of this blob uses
// Read to confirm the store still backs it.
func (st *Store) Read(meta VersionMeta) ([]byte, error) {
	data, err := os.ReadFile(st.blobPath(meta.Blob))
	if err != nil {
		return nil, fmt.Errorf("specstore: load gen %d: %w", meta.Generation, err)
	}
	if !blobIntact(data, meta.Blob) {
		return nil, fmt.Errorf("specstore: load gen %d: blob hash mismatch (corrupt store)", meta.Generation)
	}
	return data, nil
}

// ProgramHash computes a content hash of the device program: name, control
// structure layout, and every handler's blocks, ops, and terminators. Two
// builds of the same device program hash identically; any change to the
// program (the spec's "source code") changes the hash and misses the cache.
func ProgramHash(prog *ir.Program) string {
	h := sha256.New()
	fmt.Fprintf(h, "program %s dispatch=%d arena=%d\n", prog.Name, prog.DispatchHandler, prog.ArenaSize)
	for i := range prog.Fields {
		fmt.Fprintf(h, "field %+v\n", prog.Fields[i])
	}
	for i := range prog.Handlers {
		hd := &prog.Handlers[i]
		fmt.Fprintf(h, "handler %s idx=%d region=%d temps=%d\n", hd.Name, hd.Index, hd.Region, hd.NumTemps)
		for j := range hd.Blocks {
			b := &hd.Blocks[j]
			fmt.Fprintf(h, "block %s kind=%d\n", b.Label, b.Kind)
			for k := range b.Ops {
				fmt.Fprintf(h, "op %+v\n", b.Ops[k])
			}
			fmt.Fprintf(h, "term %+v\n", b.Term)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// CorpusHash derives a content hash for a training corpus from
// caller-supplied tags (a corpus name, seed, sample count — whatever
// deterministically identifies the training input).
func CorpusHash(tags ...string) string {
	h := sha256.New()
	for _, t := range tags {
		fmt.Fprintf(h, "%d:%s\n", len(t), t)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// EnhancedCorpusHash derives the corpus hash of an enhanced spec: the
// parent corpus extended by the audited warning replays. Enhancing the
// same parent with the same warnings lands on the same key.
func EnhancedCorpusHash(parent string, warnings []WarningRecord) string {
	h := sha256.New()
	fmt.Fprintf(h, "parent %s\n", parent)
	for _, w := range warnings {
		fmt.Fprintf(h, "warn %s space=%d addr=%#x write=%t data=%x\n",
			w.Strategy, w.Space, w.Addr, w.Write, w.Data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
