package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"sedspec/internal/obs/stream"
)

// initialBackoff is the first reconnect delay under -follow (or
// -retry-max, if smaller); it doubles per failed attempt up to
// -retry-max.
const initialBackoff = 500 * time.Millisecond

// recentLimit is how many of the hub's retained events one read of its
// recent ring asks for.
const recentLimit = 256

// runLogs implements `sedspec logs ADDR`, the one client for a running
// process's telemetry events. It prints history first: the durable
// journal (/journal) with time, kind, tenant and device filters, or,
// on a server without one (sedspec, sedfuzz or sedbench -listen,
// sedspecd -journal off), the hub's in-memory recent ring, where the
// time bounds do not apply. With -follow it then tails the live stream.
// Both sides carry the hub sequence number, so the dedup cursor prints
// each event exactly once across the splice.
//
// The live tail reconnects with capped exponential backoff. Each
// reconnect first replays the recent ring against the cursor, so events
// published while the client was down are not lost; a ring whose newest
// sequence is below the cursor means the server restarted, and the
// cursor resets so the new process's events print from its beginning.
func runLogs(args []string) error {
	fs := flag.NewFlagSet("logs", flag.ExitOnError)
	since := fs.String("since", "", "lower time bound: duration ago (15m), RFC3339, or unix nanoseconds")
	until := fs.String("until", "", "upper time bound: duration ago, RFC3339, or unix nanoseconds")
	kinds := fs.String("kinds", "", "comma-separated event kinds (anomaly,audit,swap,attach,detach,spec,health)")
	tenant := fs.String("tenant", "", "only this tenant's events")
	device := fs.String("device", "", "only this device's events")
	asJSON := fs.Bool("json", false, "print raw NDJSON instead of the pretty form")
	n := fs.Int("n", 0, "exit after N events (0: all history, then follow forever with -follow)")
	follow := fs.Bool("follow", false, "after the history, keep following the live stream")
	retryMax := fs.Duration("retry-max", 15*time.Second, "backoff cap between reconnect attempts under -follow")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: sedspec logs [flags] ADDR")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Every check precedes the first request: a rejected invocation
	// prints nothing.
	addr := fs.Arg(0)
	if addr == "" {
		fs.Usage()
		return fmt.Errorf("ADDR required (the target process's -addr or -listen address)")
	}
	if *kinds != "" {
		if _, err := stream.ParseKinds(*kinds); err != nil {
			return err
		}
	}
	// -until bounds history; following past it would contradict the ask.
	if *follow && *until != "" {
		return fmt.Errorf("-follow and -until are mutually exclusive")
	}
	if *retryMax <= 0 {
		return fmt.Errorf("-retry-max %s: want a positive backoff cap", *retryMax)
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	c := &eventClient{
		base:     strings.TrimRight(addr, "/"),
		kinds:    *kinds,
		asJSON:   *asJSON,
		limit:    *n,
		retryMax: *retryMax,
		tenant:   *tenant,
		device:   *device,
	}

	q := url.Values{}
	for param, v := range map[string]string{"since": *since, "until": *until, "kinds": *kinds, "tenant": *tenant, "device": *device} {
		if v != "" {
			q.Set(param, v)
		}
	}
	q.Set("limit", strconv.Itoa(*n)) // 0 = unlimited
	_, err := c.fetch("/journal", q)
	if errors.Is(err, errNotFound) {
		fmt.Fprintln(os.Stderr, "logs: server has no /journal; falling back to the in-memory recent buffer")
		_, err = c.fetch("/anomalies", c.query(false))
	}
	if err != nil || !*follow || c.done() {
		return err
	}
	return c.follow()
}

// eventClient holds what survives reconnects: the dedup cursor
// (lastSeq) and the printed-event count.
type eventClient struct {
	base     string
	kinds    string
	asJSON   bool
	limit    int
	retryMax time.Duration
	// tenant/device narrow the printed events client-side: the journal
	// filters server-side, but the hub's recent ring and live tail do
	// not.
	tenant string
	device string

	lastSeq uint64
	seen    int
}

// errNotFound marks a 404: a server without the requested route.
var errNotFound = errors.New("not found")

// get opens path on the server and returns the response body, or an
// error for any status but 200.
func (c *eventClient) get(path string, q url.Values) (io.ReadCloser, error) {
	target := c.base + path + "?" + q.Encode()
	resp, err := http.Get(target)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			return nil, fmt.Errorf("%s: %w", target, errNotFound)
		}
		return nil, fmt.Errorf("%s: %s", target, resp.Status)
	}
	return resp.Body, nil
}

// fetch reads one response from path (see read).
func (c *eventClient) fetch(path string, q url.Values) (uint64, error) {
	body, err := c.get(path, q)
	if err != nil {
		return 0, err
	}
	defer body.Close()
	return c.read(body)
}

// query is the /anomalies query: the live tail, or one read of the
// recent ring.
func (c *eventClient) query(follow bool) url.Values {
	q := url.Values{}
	if c.kinds != "" {
		q.Set("kinds", c.kinds)
	}
	if follow {
		q.Set("follow", "1")
	} else {
		q.Set("limit", strconv.Itoa(recentLimit))
	}
	return q
}

// read prints the NDJSON events in body that are past the dedup cursor
// and pass the tenant/device match, until the body ends or -n events
// were printed. Drop notices carry no sequence number and always pass.
// It returns the newest sequence number in the body, printed or not.
func (c *eventClient) read(body io.Reader) (uint64, error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var maxSeq uint64
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev stream.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			fmt.Fprintf(os.Stderr, "logs: skipping undecodable line: %v\n", err)
			continue
		}
		maxSeq = max(maxSeq, ev.Seq)
		if (ev.Seq > 0 && ev.Seq <= c.lastSeq) || !c.match(&ev) {
			continue
		}
		if c.asJSON {
			fmt.Println(line)
		} else {
			fmt.Println(ev.String())
		}
		c.lastSeq = max(c.lastSeq, ev.Seq)
		c.seen++
		if c.done() {
			return maxSeq, nil
		}
	}
	return maxSeq, sc.Err()
}

// match applies the client-side tenant/device filter. Drop notices
// always pass: suppressing them would hide that filtered events were
// shed.
func (c *eventClient) match(ev *stream.Event) bool {
	if ev.Kind == stream.KindDrop {
		return true
	}
	return (c.tenant == "" || ev.Tenant == c.tenant) &&
		(c.device == "" || ev.Device == c.device)
}

func (c *eventClient) done() bool { return c.limit > 0 && c.seen >= c.limit }

// follow tails the live stream until -n events were printed,
// reconnecting whenever it drops.
func (c *eventClient) follow() error {
	q := c.query(true)
	start := min(initialBackoff, c.retryMax)
	backoff := start
	for first := true; ; first = false {
		if !first {
			c.catchUp()
			if c.done() {
				return nil
			}
		}
		body, err := c.get("/anomalies", q)
		if err == nil {
			backoff = start
			if first {
				fmt.Fprintf(os.Stderr, "following %s/anomalies?%s (interrupt to stop)\n", c.base, q.Encode())
			}
			_, err = c.read(body)
			body.Close()
			if c.done() {
				return nil
			}
			if err == nil {
				err = errors.New("stream closed by server")
			}
		}
		fmt.Fprintf(os.Stderr, "logs: %v; reconnecting in %s\n", err, backoff)
		time.Sleep(backoff)
		backoff = min(2*backoff, c.retryMax)
	}
}

// catchUp replays the recent ring after a reconnect, printing what the
// server published while the tail was down. A ring whose newest
// sequence is below the cursor comes from a fresh server process (its
// sequence counter restarted): the cursor resets and the ring is read
// again from its beginning. Errors just mean the server is still down.
func (c *eventClient) catchUp() {
	cursor := c.lastSeq
	newest, err := c.fetch("/anomalies", c.query(false))
	if err == nil && newest > 0 && newest < cursor {
		fmt.Fprintln(os.Stderr, "logs: server restarted (stream sequence reset); resuming from its beginning")
		c.lastSeq = 0
		_, _ = c.fetch("/anomalies", c.query(false))
	}
}
