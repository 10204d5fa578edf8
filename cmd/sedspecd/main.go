// Command sedspecd is the resident SEDSpec fleet-enforcement daemon: a
// long-running process hosting named tenants, each with its own
// spec-store namespace and live enforcement sessions, driven over an
// HTTP/JSON control plane that shares a listener with the
// introspection surface (/healthz /fleet /metrics /journal /debug/pprof).
//
// Usage:
//
//	sedspecd -store DIR [-addr 127.0.0.1:6060]
//	         [-drain-timeout 10s]
//	         [-journal DIR|off] [-journal-fsync interval|always|none]
//	         [-journal-fsync-interval 250ms]
//	         [-journal-segment-bytes N] [-journal-max-segments N]
//
// Control plane (all JSON; see the README walkthrough):
//
//	POST   /tenants                       {"name": "prod"}
//	GET    /tenants
//	GET    /tenants/{tenant}
//	DELETE /tenants/{tenant}              drain + remove
//	POST   /tenants/{tenant}/specs        {"device": "fdc", "corpus": "benign"|"cve:<ID>", "mode": "...", "budget": N}
//	GET    /tenants/{tenant}/specs[?device=fdc]
//	POST   /tenants/{tenant}/sessions     {"device": "fdc", "workload": "benign"|"mixed"|"poc"|"idle", "count": N, ...}
//	GET    /tenants/{tenant}/sessions
//	DELETE /tenants/{tenant}/sessions/{id}
//	POST   /tenants/{tenant}/swap         {"device": "fdc", "enhance": true} or {"device": "fdc", "generation": N}
//	GET    /status
//	GET    /fleet[?tenant=prod]
//	GET    /journal[?since=15m&kinds=anomaly&tenant=prod&follow=1|stats=1]
//
// By default the daemon keeps a durable telemetry journal under
// <store>/.journal (a dot-prefixed directory can never collide with a
// tenant namespace): anomalies, audits, swaps, spec publications, and
// session finals survive restarts: /journal (what `sedspec logs` reads)
// serves history from disk, and a fresh boot resumes the event sequence
// and /fleet counters past the pre-restart history. Pass -journal off to
// run fully in-memory; /journal then serves the hub's recent ring.
//
// On SIGINT/SIGTERM the daemon drains: every session goroutine is
// stopped, checkers are retired (stats folded, one final detach event
// each), the journal flushes and fsyncs, and the process exits 0 on a
// clean drain or 1 when a session failed to stop within -drain-timeout.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"sedspec/internal/daemon"
	"sedspec/internal/obs/journal"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:6060", "control-plane + introspection listen address")
	store := flag.String("store", "", "spec-store root directory; tenant namespaces live under it (required)")
	drain := flag.Duration("drain-timeout", 10*time.Second, "deadline for stopping session goroutines on shutdown or tenant delete")
	jdir := flag.String("journal", "", "durable event journal directory (default <store>/.journal; \"off\" disables persistence)")
	jfsync := flag.String("journal-fsync", "interval", "journal fsync policy: interval, always, or none")
	jevery := flag.Duration("journal-fsync-interval", 250*time.Millisecond, "fsync period under the interval policy")
	jseg := flag.Int64("journal-segment-bytes", 4<<20, "journal segment rotation size")
	jmax := flag.Int("journal-max-segments", 16, "journal segments retained before the oldest is pruned")
	flag.Parse()

	if err := run(*addr, *store, *drain, *jdir, *jfsync, *jevery, *jseg, *jmax); err != nil {
		fmt.Fprintln(os.Stderr, "sedspecd:", err)
		os.Exit(1)
	}
}

func run(addr, store string, drain time.Duration,
	jdir, jfsync string, jevery time.Duration, jseg int64, jmax int) error {
	if store == "" {
		return fmt.Errorf("-store is required (spec-store root directory)")
	}
	var jopts journal.Options
	switch jdir {
	case "off":
	case "":
		jdir = filepath.Join(store, ".journal")
		fallthrough
	default:
		policy, err := journal.ParsePolicy(jfsync)
		if err != nil {
			return err
		}
		jopts = journal.Options{
			Dir:           jdir,
			Fsync:         policy,
			FsyncInterval: jevery,
			SegmentBytes:  jseg,
			MaxSegments:   jmax,
		}
	}
	d, err := daemon.New(daemon.Options{
		StoreRoot:    store,
		DrainTimeout: drain,
		Journal:      jopts,
	})
	if err != nil {
		return err
	}
	if err := d.Serve(addr); err != nil {
		return err
	}
	if j := d.Journal(); j != nil {
		st := j.Stats()
		fmt.Printf("sedspecd listening on %s (store %s, drain timeout %s, journal %s: %d records replayed)\n",
			d.Addr(), store, drain, st.Dir, st.Records)
	} else {
		fmt.Printf("sedspecd listening on %s (store %s, drain timeout %s, journal off)\n", d.Addr(), store, drain)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("sedspecd: received %s, draining ...\n", s)
	if err := d.Close(); err != nil {
		return err
	}
	fmt.Println("sedspecd: drained clean")
	return nil
}
