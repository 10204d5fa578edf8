package journal

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"

	"sedspec/internal/obs/stream"
)

// segView is a point-in-time snapshot of one segment for reading:
// path plus the byte length that was valid when the snapshot was
// taken. The writer only ever appends, so reading [0, bytes) races
// with nothing.
type segView struct {
	path     string
	bytes    int64
	firstSeq uint64
	lastSeq  uint64
	firstNs  int64
	lastNs   int64
	records  uint64
}

// snapshotSegs appends the writer's pending backlog, flushes the active
// segment's buffered tail to the OS (so a reader opening the file sees
// every appended frame) and snapshots the segment index.
func (j *Journal) snapshotSegs() ([]segView, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.closed {
		// Append what the writer was offered but has not drained yet, so
		// every event the hub published before this call is on disk.
		j.drainLocked()
		if err := j.w.Flush(); err != nil {
			j.wrErrs++
			return nil, err
		}
	}
	views := make([]segView, len(j.segs))
	for i := range j.segs {
		s := &j.segs[i]
		views[i] = segView{
			path: s.path, bytes: s.bytes,
			firstSeq: s.firstSeq, lastSeq: s.lastSeq,
			firstNs: s.firstNs, lastNs: s.lastNs,
			records: s.records,
		}
	}
	return views, nil
}

// skippable reports whether the whole segment falls outside the query
// bounds (by seq or time), so it need not be opened at all.
func skippable(q *stream.Query, v *segView) bool {
	if v.records == 0 {
		return true
	}
	if q.MinSeq != 0 && v.lastSeq < q.MinSeq {
		return true
	}
	if q.SinceNs != 0 && v.lastNs < q.SinceNs {
		return true
	}
	if q.UntilNs != 0 && v.firstNs > q.UntilNs {
		return true
	}
	return false
}

// Query streams matching events oldest-first into fn; fn returning
// false stops the walk early. Concurrent appends are safe: the walk
// covers exactly the records that existed when it began, which include
// every event the hub published before the call unless the writer's
// ring shed it. Usable on a closed journal (post-crash inspection
// tools).
func (j *Journal) Query(q stream.Query, fn func(ev *stream.Event) bool) error {
	views, err := j.snapshotSegs()
	if err != nil {
		return err
	}
	delivered := 0
	for i := range views {
		v := &views[i]
		if skippable(&q, v) {
			continue
		}
		stop, err := walkSegment(v, func(ev *stream.Event) bool {
			if !q.Matches(ev) {
				return true
			}
			if !fn(ev) {
				return false
			}
			delivered++
			return q.Limit == 0 || delivered < q.Limit
		})
		if err != nil {
			return err
		}
		if stop || (q.Limit > 0 && delivered >= q.Limit) {
			return nil
		}
	}
	return nil
}

// walkSegment decodes every frame in [magic, v.bytes), calling fn per
// event; fn returning false stops (stop=true). Frames inside the valid
// prefix were CRC-verified at write or recovery time, but verify again
// on read: a corrupt record here is bit rot, reported as an error
// rather than silently skipped.
func walkSegment(v *segView, fn func(ev *stream.Event) bool) (stop bool, err error) {
	f, err := os.Open(v.path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(io.LimitReader(f, v.bytes), 64<<10)
	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != segMagic {
		return false, fmt.Errorf("journal: %s: bad segment magic", v.path)
	}
	var hdr [frameHeader]byte
	var payload []byte
	for off := int64(len(segMagic)); off < v.bytes; {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return false, fmt.Errorf("journal: %s: truncated frame header at %d: %w", v.path, off, err)
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > maxFrame {
			return false, fmt.Errorf("journal: %s: bad frame length %d at %d", v.path, n, off)
		}
		if uint32(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return false, fmt.Errorf("journal: %s: truncated frame at %d: %w", v.path, off, err)
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			return false, fmt.Errorf("journal: %s: CRC mismatch at %d", v.path, off)
		}
		var ev stream.Event
		if err := ev.UnmarshalBinary(payload); err != nil {
			return false, fmt.Errorf("journal: %s: frame at %d: %w", v.path, off, err)
		}
		off += frameHeader + int64(n)
		if !fn(&ev) {
			return true, nil
		}
	}
	return false, nil
}

// FoldBaselines replays the whole journal, in one pass, into
// per-(tenant, device) history rows for Health.AddBaseline, so /fleet
// counters survive a restart, and the newest sequence number on disk,
// which a restarted hub resumes from (Hub.ResumeAt). Each count has
// exactly one authoritative source to avoid double counting: blocked
// from anomaly events, warned from audit events, rounds from detach
// finals (the only record that carries them), swaps from swap events,
// generation from the highest SpecGen stamp seen on any of the device's
// events.
func (j *Journal) FoldBaselines() (rows []stream.BaselineRow, lastSeq uint64, err error) {
	type key struct{ tenant, device string }
	byKey := make(map[key]*stream.BaselineRow)
	get := func(ev *stream.Event) *stream.BaselineRow {
		k := key{ev.Tenant, ev.Device}
		r := byKey[k]
		if r == nil {
			r = &stream.BaselineRow{Tenant: ev.Tenant, Device: ev.Device}
			byKey[k] = r
		}
		return r
	}
	err = j.Query(stream.Query{}, func(ev *stream.Event) bool {
		lastSeq = max(lastSeq, ev.Seq)
		if ev.Device == "" {
			return true // engine-level events (spec publications) carry no device row
		}
		r := get(ev)
		switch ev.Kind {
		case stream.KindAnomaly:
			r.Blocked++
		case stream.KindAudit:
			r.Warned++
		case stream.KindSwap:
			r.Swaps++
		case stream.KindDetach:
			if ev.Detach != nil {
				r.Rounds += ev.Detach.Rounds
			}
		}
		if ev.SpecGen > r.Generation {
			r.Generation = ev.SpecGen
		}
		return true
	})
	if err != nil {
		return nil, 0, err
	}
	rows = make([]stream.BaselineRow, 0, len(byKey))
	for _, r := range byKey {
		rows = append(rows, *r)
	}
	// Deterministic order for tests and logs.
	slices.SortFunc(rows, func(a, b stream.BaselineRow) int {
		return cmp.Or(cmp.Compare(a.Tenant, b.Tenant), cmp.Compare(a.Device, b.Device))
	})
	return rows, lastSeq, nil
}
