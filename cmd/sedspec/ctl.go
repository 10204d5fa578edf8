package main

// Control-plane client subcommands: thin HTTP/JSON wrappers over a
// running sedspecd. Each talks to -addr and prints the daemon's JSON
// response verbatim (it is already indented), so output composes with
// jq the same way curl does.
//
//	sedspec tenant [-addr A] create|delete|list [NAME]
//	sedspec install [-addr A] -tenant T -device D [-corpus C] [-mode M] [-budget N]
//	sedspec attach  [-addr A] -tenant T -device D [-workload W] [-cve ID] [-count N] [-ops N] [-seed N]
//	sedspec detach  [-addr A] -tenant T -id N
//	sedspec swap    [-addr A] -tenant T -device D [-enhance] [-generation N]
//	sedspec status  [-addr A] [-tenant T]

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"

	"sedspec/internal/daemon"
)

const defaultDaemonAddr = "127.0.0.1:6060"

// ctlBase normalises -addr into a base URL.
func ctlBase(addr string) string {
	if strings.Contains(addr, "://") {
		return strings.TrimRight(addr, "/")
	}
	return "http://" + strings.TrimRight(addr, "/")
}

// tenantURL is the base URL of a tenant's control-plane resources.
func tenantURL(addr, name string) string {
	return ctlBase(addr) + "/tenants/" + url.PathEscape(name)
}

// ctlDo issues one control-plane request and streams the JSON response
// to stdout. Error bodies ({"error": ...}) become command errors.
func ctlDo(method, url string, body any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, e.Error)
		}
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	_, err = os.Stdout.Write(data)
	return err
}

func runTenant(args []string) error {
	fs := flag.NewFlagSet("tenant", flag.ContinueOnError)
	addr := fs.String("addr", defaultDaemonAddr, "sedspecd address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := ctlBase(*addr)
	switch verb := fs.Arg(0); verb {
	case "create":
		name := fs.Arg(1)
		if name == "" {
			return fmt.Errorf("usage: sedspec tenant [-addr A] create NAME")
		}
		return ctlDo("POST", base+"/tenants", struct {
			Name string `json:"name"`
		}{name})
	case "delete":
		name := fs.Arg(1)
		if name == "" {
			return fmt.Errorf("usage: sedspec tenant [-addr A] delete NAME")
		}
		return ctlDo("DELETE", tenantURL(*addr, name), nil)
	case "list", "":
		return ctlDo("GET", base+"/tenants", nil)
	default:
		return fmt.Errorf("unknown verb %q (want create, delete, or list)", verb)
	}
}

func runInstall(args []string) error {
	fs := flag.NewFlagSet("install", flag.ContinueOnError)
	addr := fs.String("addr", defaultDaemonAddr, "sedspecd address")
	tenant := fs.String("tenant", "", "tenant name (required)")
	device := fs.String("device", "", "device name (required)")
	corpus := fs.String("corpus", "", `training corpus: "benign" (default) or "cve:<CVE-ID>"`)
	mode := fs.String("mode", "", "enforcement mode: protection (default) or enhancement")
	budget := fs.Int("budget", 0, "per-check step budget (0 = engine default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tenant == "" || *device == "" {
		return fmt.Errorf("usage: sedspec install [-addr A] -tenant T -device D [-corpus C] [-mode M] [-budget N]")
	}
	return ctlDo("POST", tenantURL(*addr, *tenant)+"/specs", daemon.InstallRequest{
		Device: *device, Corpus: *corpus, Mode: *mode, Budget: *budget,
	})
}

func runAttach(args []string) error {
	fs := flag.NewFlagSet("attach", flag.ContinueOnError)
	addr := fs.String("addr", defaultDaemonAddr, "sedspecd address")
	tenant := fs.String("tenant", "", "tenant name (required)")
	device := fs.String("device", "", "device name (required)")
	workload := fs.String("workload", "", "benign (default), mixed, poc, or idle")
	cve := fs.String("cve", "", "CVE ID for -workload poc (default: the engine's corpus PoC)")
	count := fs.Int("count", 0, "number of sessions to attach (default 1)")
	ops := fs.Uint64("ops", 0, "op bound for benign/mixed loops (0 = until detach)")
	seed := fs.Uint64("seed", 0, "workload RNG seed (session i uses seed+i)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tenant == "" || *device == "" {
		return fmt.Errorf("usage: sedspec attach [-addr A] -tenant T -device D [-workload W] [-cve ID] [-count N] [-ops N] [-seed N]")
	}
	return ctlDo("POST", tenantURL(*addr, *tenant)+"/sessions", daemon.AttachRequest{
		Device: *device, Workload: *workload, CVE: *cve, Count: *count, Ops: *ops, Seed: *seed,
	})
}

func runDetach(args []string) error {
	fs := flag.NewFlagSet("detach", flag.ContinueOnError)
	addr := fs.String("addr", defaultDaemonAddr, "sedspecd address")
	tenant := fs.String("tenant", "", "tenant name (required)")
	id := fs.Int("id", -1, "session ID (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tenant == "" || *id < 0 {
		return fmt.Errorf("usage: sedspec detach [-addr A] -tenant T -id N")
	}
	return ctlDo("DELETE", fmt.Sprintf("%s/sessions/%d", tenantURL(*addr, *tenant), *id), nil)
}

func runSwap(args []string) error {
	fs := flag.NewFlagSet("swap", flag.ContinueOnError)
	addr := fs.String("addr", defaultDaemonAddr, "sedspecd address")
	tenant := fs.String("tenant", "", "tenant name (required)")
	device := fs.String("device", "", "device name (required)")
	enhance := fs.Bool("enhance", false, "enhance from the engine's audit trail, publish, and swap")
	generation := fs.Uint64("generation", 0, "swap to this stored spec generation instead")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tenant == "" || *device == "" {
		return fmt.Errorf("usage: sedspec swap [-addr A] -tenant T -device D [-enhance] [-generation N]")
	}
	return ctlDo("POST", tenantURL(*addr, *tenant)+"/swap", daemon.SwapRequest{
		Device: *device, Enhance: *enhance, Generation: *generation,
	})
}

func runStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ContinueOnError)
	addr := fs.String("addr", defaultDaemonAddr, "sedspecd address")
	tenant := fs.String("tenant", "", "restrict to one tenant")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tenant != "" {
		return ctlDo("GET", tenantURL(*addr, *tenant), nil)
	}
	return ctlDo("GET", ctlBase(*addr)+"/status", nil)
}
