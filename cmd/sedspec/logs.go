package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
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

// runLogs implements `sedspec logs ADDR`, the one client for a running
// process's telemetry events. It reads /journal, the one event read
// endpoint: history from the durable journal, or, on a server without
// one (sedspec, sedfuzz or sedbench -listen, sedspecd -journal off),
// from the hub's in-memory recent ring, with the same filters on both.
// With -follow the server splices the live tail onto the history, each
// event exactly once.
//
// A dropped -follow stream reconnects with capped exponential backoff,
// asking for the events past the last one printed (min_seq). A server
// whose newest sequence is below that cursor is a fresh process (its
// sequence counter restarted): the cursor resets and its events print
// from its beginning.
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
	q := url.Values{}
	for param, v := range map[string]string{"since": *since, "until": *until, "kinds": *kinds, "tenant": *tenant, "device": *device} {
		if v != "" {
			q.Set(param, v)
		}
	}
	q.Set("limit", strconv.Itoa(*n)) // 0 = unlimited
	if *follow {
		q.Set("follow", "1")
	}
	c := &eventClient{
		url:      strings.TrimRight(addr, "/") + "/journal",
		query:    q,
		asJSON:   *asJSON,
		limit:    *n,
		retryMax: *retryMax,
	}
	if !*follow {
		return c.fetch()
	}
	return c.follow()
}

// eventClient holds what survives reconnects: the cursor (the newest
// printed sequence number) and the printed-event count.
type eventClient struct {
	url      string
	query    url.Values
	asJSON   bool
	limit    int
	retryMax time.Duration

	lastSeq uint64
	seen    int
	answers int // 200 responses so far; after the first, failures retry
}

// permanentError is a failure reconnecting would not mend: no server
// answered the first request, a request was refused, or a trailer
// record said the server's history read failed mid-stream.
type permanentError struct{ error }

// errRestarted marks a server whose newest sequence number is below the
// cursor: a fresh process.
var errRestarted = errors.New("server restarted (stream sequence reset); resuming from its beginning")

// fetch runs one /journal request, resuming past the cursor, and prints
// its events (see read).
func (c *eventClient) fetch() error {
	q := maps.Clone(c.query)
	if c.lastSeq > 0 {
		q.Set("min_seq", strconv.FormatUint(c.lastSeq+1, 10))
	}
	resp, err := http.Get(c.url + "?" + q.Encode())
	if err != nil {
		if c.answers == 0 {
			return permanentError{err}
		}
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return permanentError{fmt.Errorf("%s: %s: %s", c.url, resp.Status, bytes.TrimSpace(msg))}
	}
	c.answers++
	if newest, _ := strconv.ParseUint(resp.Header.Get(stream.SeqHeader), 10, 64); newest < c.lastSeq {
		return errRestarted
	}
	return c.read(resp.Body)
}

// read prints the NDJSON events in body until the body ends or -n
// events were printed. A trailer record ends the read with its error.
func (c *eventClient) read(body io.Reader) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec struct {
			stream.Event
			Error *string `json:"error"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			fmt.Fprintf(os.Stderr, "logs: skipping undecodable line: %v\n", err)
			continue
		}
		if rec.Error != nil {
			return permanentError{fmt.Errorf("%s: %s", c.url, *rec.Error)}
		}
		if c.asJSON {
			fmt.Println(line)
		} else {
			fmt.Println(rec.Event.String())
		}
		c.lastSeq = max(c.lastSeq, rec.Seq)
		c.seen++
		if c.done() {
			return nil
		}
	}
	return sc.Err()
}

func (c *eventClient) done() bool { return c.limit > 0 && c.seen >= c.limit }

// follow reads the history and live tail until -n events were printed,
// reconnecting whenever the stream drops.
func (c *eventClient) follow() error {
	start := min(initialBackoff, c.retryMax)
	backoff := start
	fmt.Fprintf(os.Stderr, "following %s?%s (interrupt to stop)\n", c.url, c.query.Encode())
	for {
		answered := c.answers
		err := c.fetch()
		var perm permanentError
		switch {
		case c.done() || errors.As(err, &perm):
			return err
		case errors.Is(err, errRestarted):
			fmt.Fprintf(os.Stderr, "logs: %v\n", err)
			c.lastSeq = 0
			continue
		case err == nil:
			err = errors.New("stream closed by server")
		}
		if c.answers > answered {
			backoff = start
		}
		fmt.Fprintf(os.Stderr, "logs: %v; reconnecting in %s\n", err, backoff)
		time.Sleep(backoff)
		backoff = min(2*backoff, c.retryMax)
	}
}
