package specstore_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sedspec/internal/ir"
	"sedspec/internal/obs/stream"
	"sedspec/internal/specstore"
)

func buildProg(t *testing.T, name string) *ir.Program {
	t.Helper()
	b := ir.NewBuilder(name)
	h := b.Handler("dispatch")
	h.Block("e").Entry().Halt("return")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProgramHashDeterministicAndSensitive(t *testing.T) {
	a1 := specstore.ProgramHash(buildProg(t, "dev"))
	a2 := specstore.ProgramHash(buildProg(t, "dev"))
	if a1 != a2 {
		t.Error("two builds of the same program hash differently")
	}
	if b := specstore.ProgramHash(buildProg(t, "other")); b == a1 {
		t.Error("different programs share a hash")
	}
}

func TestCorpusHashes(t *testing.T) {
	if specstore.CorpusHash("a") != specstore.CorpusHash("a") {
		t.Error("corpus hash not deterministic")
	}
	if specstore.CorpusHash("a") == specstore.CorpusHash("b") {
		t.Error("distinct corpora share a hash")
	}
	// Tag boundaries matter: ("ab","c") and ("a","bc") are different corpora.
	if specstore.CorpusHash("ab", "c") == specstore.CorpusHash("a", "bc") {
		t.Error("corpus hash ignores tag boundaries")
	}

	w := []specstore.WarningRecord{{Strategy: "conditional-jump-check", Addr: 1, Write: true, Data: []byte{0xF0}}}
	if specstore.EnhancedCorpusHash("p", w) != specstore.EnhancedCorpusHash("p", w) {
		t.Error("enhanced corpus hash not deterministic")
	}
	if specstore.EnhancedCorpusHash("p", w) == specstore.EnhancedCorpusHash("q", w) {
		t.Error("enhanced corpus hash ignores the parent")
	}
	if specstore.EnhancedCorpusHash("p", w) == specstore.EnhancedCorpusHash("p", nil) {
		t.Error("enhanced corpus hash ignores the warnings")
	}
}

func TestOpenRejectsCorruptIndex(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := specstore.Open(dir); err == nil {
		t.Error("corrupt index must fail to open")
	}
}

func TestOpenEmptyStore(t *testing.T) {
	dir := t.TempDir()
	st, err := specstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Latest("dev"); ok {
		t.Error("empty store reports a latest version")
	}
	if vs := st.Versions("dev"); vs != nil {
		t.Errorf("empty store reports versions: %v", vs)
	}
	if _, ok := st.Lookup(specstore.Key{Device: "dev"}); ok {
		t.Error("empty store reports a lookup hit")
	}
}

// TestPutEncoded pins publication from encoded bytes: a fresh version
// takes the device's next generation and publishes one KindSpec event,
// putting the same (key, blob) again returns the stored version and
// publishes nothing, a damaged or missing blob file is rewritten, and a
// version naming no device is refused.
func TestPutEncoded(t *testing.T) {
	st, err := specstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hub := stream.NewHub()
	st.SetStream(hub)
	data := []byte("encoded spec")
	sum := sha256.Sum256(data)
	meta := specstore.VersionMeta{Device: "dev", ProgramHash: "prog", CorpusHash: specstore.CorpusHash("a"), CreatedBy: "learn"}

	first, err := st.PutEncoded(data, meta)
	if err != nil {
		t.Fatal(err)
	}
	if first.Generation != 1 || first.Blob != hex.EncodeToString(sum[:]) || first.Device != "dev" {
		t.Fatalf("first put: %+v", first)
	}
	other := meta
	other.CorpusHash = specstore.CorpusHash("b")
	second, err := st.PutEncoded(data, other)
	if err != nil {
		t.Fatal(err)
	}
	if second.Generation != 2 || second.Blob != first.Blob {
		t.Fatalf("second key: %+v, want generation 2 over the same blob", second)
	}
	if n := hub.Published(stream.KindSpec); n != 2 {
		t.Fatalf("two fresh versions published %d spec events", n)
	}

	path := filepath.Join(st.Dir(), "blobs", first.Blob+".spec")
	for _, damage := range []struct {
		name string
		do   func() error
	}{
		{"intact", func() error { return nil }},
		{"corrupt", func() error { return os.WriteFile(path, []byte("garbage"), 0o644) }},
		{"missing", func() error { return os.Remove(path) }},
	} {
		if err := damage.do(); err != nil {
			t.Fatal(err)
		}
		again, err := st.PutEncoded(data, meta)
		if err != nil {
			t.Fatalf("%s: %v", damage.name, err)
		}
		if !reflect.DeepEqual(again, first) {
			t.Errorf("%s: republish returned %+v, want the stored %+v", damage.name, again, first)
		}
		if _, err := st.Read(first); err != nil {
			t.Errorf("%s blob not rewritten: %v", damage.name, err)
		}
	}
	if n := hub.Published(stream.KindSpec); n != 2 {
		t.Errorf("republishing stored versions published %d more spec events", n-2)
	}
	if n := len(st.Versions("dev")); n != 2 {
		t.Errorf("store holds %d versions, want 2", n)
	}

	nodev := meta
	nodev.Device = ""
	if _, err := st.PutEncoded([]byte("other spec"), nodev); err == nil {
		t.Error("a version naming no device was published")
	}
	if n := hub.Published(stream.KindSpec); n != 2 {
		t.Error("a refused put published a spec event")
	}
}

// TestOpenRejectsUnsafeIndex: Open refuses an index entry whose blob is
// not a content address — "../../outside" would make Read open a file
// outside blobs/ — and one that repeats a (device, generation), and the
// error names the entry.
func TestOpenRejectsUnsafeIndex(t *testing.T) {
	sum := sha256.Sum256([]byte("spec"))
	blob := hex.EncodeToString(sum[:])
	for _, c := range []struct {
		name, index, want string
	}{
		{"traversal", `{"versions":[{"device":"fdc","generation":1,"blob":"../../outside"}]}`, `"../../outside"`},
		{"uppercase", `{"versions":[{"device":"fdc","generation":1,"blob":"` + strings.ToUpper(blob) + `"}]}`, "fdc generation 1"},
		{"repeated generation", `{"versions":[{"device":"fdc","generation":1,"blob":"` + blob + `"},` +
			`{"device":"fdc","generation":1,"blob":"` + blob + `"}]}`, "entry 1 (fdc generation 1)"},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte(c.index), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := specstore.Open(dir)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Open = %v, want an error naming %s", c.name, err, c.want)
		}
	}
}

// FuzzStoreOpen opens a store over arbitrary index.json bytes. Open,
// Versions, Latest, Lookup and Read must never panic; an index Open
// accepts names only files inside blobs/, and Read of the one blob the
// store holds returns its bytes. Crashers live under testdata/fuzz.
func FuzzStoreOpen(f *testing.F) {
	data := []byte("spec")
	sum := sha256.Sum256(data)
	blob := hex.EncodeToString(sum[:])
	entry := func(dev string, gen int, blob string) string {
		return fmt.Sprintf(`{"device":%q,"generation":%d,"programHash":"p","corpusHash":"c","blob":%q,"createdBy":"learn"}`, dev, gen, blob)
	}
	for _, seed := range []string{
		``, `{}`, `null`, `{"versions":null}`, `{"versions":[]}`,
		`{"versions":[` + entry("fdc", 1, blob) + `]}`,
		`{"versions":[` + entry("fdc", 1, blob) + `,` + entry("fdc", 2, blob) + `,` + entry("ehci", 1, blob) + `]}`,
		`{"versions":[` + entry("fdc", 1, "../../outside") + `]}`,
		`{"versions":[` + entry("fdc", 1, blob) + `,` + entry("fdc", 1, blob) + `]}`,
		`{"versions":[` + entry("fdc", 1, blob[:63]) + `]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, index []byte) {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "blobs", blob+".spec"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "index.json"), index, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := specstore.Open(dir)
		if err != nil {
			return
		}
		var idx struct {
			Versions []specstore.VersionMeta `json:"versions"`
		}
		if err := json.Unmarshal(index, &idx); err != nil {
			t.Fatalf("Open accepted an index encoding/json rejects: %v", err)
		}
		blobs := filepath.Join(dir, "blobs")
		for _, v := range idx.Versions {
			if p := filepath.Join(blobs, v.Blob+".spec"); filepath.Dir(p) != blobs {
				t.Fatalf("accepted entry %+v names %s, outside blobs/", v, p)
			}
			st.Versions(v.Device)
			st.Latest(v.Device)
			if got, ok := st.Lookup(v.Key()); !ok || got.Key() != v.Key() {
				t.Fatalf("Lookup(%+v) = %+v, %v", v.Key(), got, ok)
			}
			got, err := st.Read(v)
			if (err == nil) != (v.Blob == blob) || (err == nil && !bytes.Equal(got, data)) {
				t.Fatalf("Read(%+v) = %q, %v", v, got, err)
			}
		}
	})
}
