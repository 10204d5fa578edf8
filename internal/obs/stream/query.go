package stream

import (
	"fmt"
	"net/url"
	"strconv"
	"time"
)

// Query selects a slice of event history. Zero values are unbounded.
type Query struct {
	// SinceNs/UntilNs bound event timestamps (inclusive since, inclusive
	// until; 0 = unbounded).
	SinceNs int64
	UntilNs int64
	// Kinds masks event kinds (0 = all).
	Kinds KindMask
	// Tenant/Device match exactly when non-empty.
	Tenant string
	Device string
	// MinSeq skips events with hub seq below it.
	MinSeq uint64
	// Limit caps delivered events, oldest first (0 = unlimited).
	Limit int
}

// Matches reports whether ev passes every filter of q (Limit aside).
func (q *Query) Matches(ev *Event) bool {
	if q.Kinds != 0 && !q.Kinds.Has(ev.Kind) {
		return false
	}
	if q.SinceNs != 0 && ev.TimeNs < q.SinceNs {
		return false
	}
	if q.UntilNs != 0 && ev.TimeNs > q.UntilNs {
		return false
	}
	if q.Tenant != "" && ev.Tenant != q.Tenant {
		return false
	}
	if q.Device != "" && ev.Device != q.Device {
		return false
	}
	return q.MinSeq == 0 || ev.Seq >= q.MinSeq
}

// defaultLimit caps a /journal read that names no limit; a follow
// stream without one is unbounded.
const defaultLimit = 1024

// parseQuery reads /journal's parameters (see handleJournal).
func parseQuery(v url.Values) (q Query, follow bool, err error) {
	follow = v.Get("follow") == "1"
	if !follow {
		q.Limit = defaultLimit
	}
	if q.SinceNs, err = parseTime(v.Get("since")); err != nil {
		return q, false, fmt.Errorf("bad since: %w", err)
	}
	if q.UntilNs, err = parseTime(v.Get("until")); err != nil {
		return q, false, fmt.Errorf("bad until: %w", err)
	}
	if follow && q.UntilNs != 0 {
		return q, false, fmt.Errorf("follow and until are mutually exclusive")
	}
	if q.Kinds, err = ParseKinds(v.Get("kinds")); err != nil {
		return q, false, err
	}
	q.Tenant = v.Get("tenant")
	q.Device = v.Get("device")
	if s := v.Get("min_seq"); s != "" {
		if q.MinSeq, err = strconv.ParseUint(s, 10, 64); err != nil {
			return q, false, fmt.Errorf("bad min_seq: %w", err)
		}
	}
	if s := v.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return q, false, fmt.Errorf("bad limit %q", s)
		}
		q.Limit = n
	}
	return q, follow, nil
}

// parseTime resolves a time bound: RFC3339, raw unix nanoseconds, or a
// duration meaning "that long before now". Empty means unbounded.
func parseTime(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	if t, err := time.Parse(time.RFC3339, s); err == nil {
		return t.UnixNano(), nil
	}
	if ns, err := strconv.ParseInt(s, 10, 64); err == nil {
		return ns, nil
	}
	if d, err := time.ParseDuration(s); err == nil && d > 0 {
		return time.Now().Add(-d).UnixNano(), nil
	}
	return 0, fmt.Errorf("want RFC3339, unix nanoseconds, or a duration like 15m: %q", s)
}
