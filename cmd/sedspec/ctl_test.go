package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"sedspec/internal/daemon"
)

// TestCtlRequests: the control-plane subcommands send the daemon's own
// request types, decodable with unknown fields rejected as the daemon
// decodes them, to paths that escape the tenant name.
func TestCtlRequests(t *testing.T) {
	type seen struct {
		method, path string
		body         any
	}
	var got seen
	var body any
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = seen{method: r.Method, path: r.URL.EscapedPath()}
		if r.Body != nil && body != nil {
			dec := json.NewDecoder(r.Body)
			dec.DisallowUnknownFields()
			if err := dec.Decode(body); err != nil {
				t.Errorf("%s %s: %v", r.Method, r.URL.Path, err)
			}
			got.body = reflect.ValueOf(body).Elem().Interface()
		}
		w.Write([]byte("{}\n"))
	}))
	defer srv.Close()

	const tenant = "a b/c"
	const esc = "/tenants/a%20b%2Fc"
	for _, tc := range []struct {
		run  func([]string) error
		args []string
		body any
		want seen
	}{
		{runInstall, []string{"-tenant", tenant, "-device", "fdc", "-corpus", "cve:CVE-2015-3456", "-budget", "200000"},
			&daemon.InstallRequest{},
			seen{"POST", esc + "/specs", daemon.InstallRequest{Device: "fdc", Corpus: "cve:CVE-2015-3456", Budget: 200000}}},
		{runAttach, []string{"-tenant", tenant, "-device", "fdc", "-workload", "idle", "-count", "3", "-ops", "7", "-seed", "9"},
			&daemon.AttachRequest{},
			seen{"POST", esc + "/sessions", daemon.AttachRequest{Device: "fdc", Workload: "idle", Count: 3, Ops: 7, Seed: 9}}},
		{runSwap, []string{"-tenant", tenant, "-device", "fdc", "-generation", "2"},
			&daemon.SwapRequest{},
			seen{"POST", esc + "/swap", daemon.SwapRequest{Device: "fdc", Generation: 2}}},
		{runDetach, []string{"-tenant", tenant, "-id", "4"}, nil, seen{"DELETE", esc + "/sessions/4", nil}},
		{runStatus, []string{"-tenant", tenant}, nil, seen{"GET", esc, nil}},
		{runTenant, []string{"delete", tenant}, nil, seen{"DELETE", esc, nil}},
	} {
		got, body = seen{}, tc.body
		args := append([]string{"-addr", srv.URL}, tc.args...)
		if _, err := captureStdout(t, func() error { return tc.run(args) }); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%v:\n got %+v\nwant %+v", tc.args, got, tc.want)
		}
	}
}
