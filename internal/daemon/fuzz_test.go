package daemon_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sedspec/internal/daemon"
	"sedspec/internal/obs"
	"sedspec/internal/obs/stream"
)

// fuzzTenant is the tenant every fuzz input finds installed: the fdc
// benign corpus in protection mode, so attach, swap and detach reach
// a live engine.
const fuzzTenant = "fz"

var (
	fuzzStoreOnce sync.Once
	fuzzStore     string
	fuzzStoreErr  error
)

// fuzzTemplate learns the fixture store once per process: tenant
// fuzzTenant with the fdc benign corpus and the CVE-2015-3456 corpus
// published, so each input's daemon installs from store hits.
func fuzzTemplate(dir string) (string, error) {
	fuzzStoreOnce.Do(func() {
		d, err := daemon.New(daemon.Options{StoreRoot: dir, Hub: stream.NewHub(), Registry: obs.NewRegistry()})
		if err != nil {
			fuzzStoreErr = err
			return
		}
		defer d.Close()
		tn, err := d.CreateTenant(fuzzTenant)
		if err == nil {
			_, err = tn.Install(daemon.InstallRequest{Corpus: "cve:CVE-2015-3456"})
		}
		if err == nil {
			_, err = tn.Install(daemon.InstallRequest{Device: "fdc"})
		}
		fuzzStore, fuzzStoreErr = dir, err
	})
	return fuzzStore, fuzzStoreErr
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(p string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// FuzzControlPlane serves one control-plane request per input (method,
// route, tenant name, body bytes) through the daemon's mux, against a
// fresh daemon whose store root is nested two levels inside the input's
// temporary directory. The request must not panic and must not be
// answered with a 5xx, the daemon must close with its sessions
// drained, and nothing may appear outside the store root. The route's
// {tenant} segment is replaced by the escaped tenant input; routes
// outside /tenants and /status (the introspection and profiling
// endpoints on the same mux) are not the control plane and are
// skipped.
func FuzzControlPlane(f *testing.F) {
	seeds := []struct{ method, route, tenant, body string }{
		// CI smoke.
		{"POST", "/tenants", "", `{"name":"prod"}`},
		{"POST", "/tenants/{tenant}/specs", fuzzTenant, `{"corpus":"cve:CVE-2015-3456","budget":200000}`},
		{"POST", "/tenants/{tenant}/sessions", fuzzTenant, `{"device":"fdc","workload":"poc"}`},
		{"GET", "/tenants/{tenant}/sessions", fuzzTenant, ``},
		// perfbench's fleet script.
		{"POST", "/tenants", "", `{"name":"enh"}`},
		{"POST", "/tenants/{tenant}/specs", fuzzTenant, `{"device":"fdc","mode":"enhancement"}`},
		{"POST", "/tenants/{tenant}/specs", fuzzTenant, `{"device":"fdc"}`},
		{"GET", "/tenants/{tenant}/specs?device=fdc", fuzzTenant, ``},
		{"POST", "/tenants/{tenant}/sessions", fuzzTenant, `{"device":"fdc","workload":"poc","cve":"CVE-2015-3456"}`},
		{"POST", "/tenants/{tenant}/sessions", fuzzTenant, `{"device":"fdc","workload":"mixed","ops":200,"seed":1}`},
		{"POST", "/tenants/{tenant}/swap", fuzzTenant, `{"device":"fdc","enhance":true}`},
		{"POST", "/tenants/{tenant}/swap", fuzzTenant, `{"device":"fdc","generation":1}`},
		{"DELETE", "/tenants/{tenant}/sessions/1", fuzzTenant, ``},
		// Names and bodies the control plane must reject.
		{"POST", "/tenants", "", `{"name":"../escape"}`},
		{"POST", "/tenants", "", `{"name":"/abs"}`},
		{"POST", "/tenants", "", `{"name":".."}`},
		{"GET", "/tenants/{tenant}", "../" + fuzzTenant, ``},
		{"DELETE", "/tenants/{tenant}", fuzzTenant, ``},
		{"POST", "/tenants/{tenant}/specs", fuzzTenant, `{"device":"fdc"} {"device":"fdc"}`},
		{"POST", "/tenants/{tenant}/sessions", fuzzTenant, `{"device":"fdc","count":-1}`},
		{"GET", "/status", "", ``},
	}
	for _, s := range seeds {
		f.Add(s.method, s.route, s.tenant, []byte(s.body))
	}
	template := f.TempDir()
	f.Fuzz(func(t *testing.T, method, route, tenant string, body []byte) {
		if !strings.HasPrefix(route, "/tenants") && !strings.HasPrefix(route, "/status") {
			return
		}
		// Keep each input small: the daemon accepts up to 1024 sessions
		// per attach, each a guest machine and a goroutine.
		var attach daemon.AttachRequest
		if json.Unmarshal(body, &attach) == nil && attach.Count > 4 {
			return
		}
		path := strings.ReplaceAll(route, "{tenant}", url.PathEscape(tenant))
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, method, "http://daemon"+path, bytes.NewReader(body))
		if err != nil {
			return
		}

		src, err := fuzzTemplate(template)
		if err != nil {
			t.Fatal(err)
		}
		base := t.TempDir()
		root := filepath.Join(base, "a", "store")
		if err := copyTree(src, root); err != nil {
			t.Fatal(err)
		}
		d, err := daemon.New(daemon.Options{
			StoreRoot:    root,
			Hub:          stream.NewHub(),
			Registry:     obs.NewRegistry(),
			DrainTimeout: 10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		tn, err := d.CreateTenant(fuzzTenant)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tn.Install(daemon.InstallRequest{Device: "fdc"}); err != nil {
			t.Fatal(err)
		}

		rec := httptest.NewRecorder()
		d.Server().ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Errorf("%s %s: %d %s", method, path, rec.Code, rec.Body.Bytes())
		}
		if err := d.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		for dir, want := range map[string]string{base: "a", filepath.Dir(root): "store"} {
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(ents) != 1 || ents[0].Name() != want {
				var names []string
				for _, e := range ents {
					names = append(names, e.Name())
				}
				t.Fatalf("%s %s with body %q created %v beside the store root", method, path, body, names)
			}
		}
	})
}
