// Package journal is the durable half of the telemetry plane: an
// append-only, segmented, checksummed on-disk log of the stream hub's
// rare-path events (blocked anomalies with their frozen forensic
// context, enhancement audits, spec hot-swaps and store publications,
// session attach/detach finals), so a daemon crash
// or restart no longer destroys the evidence trail the enforcement
// model exists to produce.
//
// Architecture: the journal never sits on the check path. It is an
// ordinary hub subscriber — a single writer goroutine drains its
// bounded subscription ring and appends frames to the active segment;
// when the writer falls behind, the hub sheds events into the
// subscription's drop counter (accounted in the journal's stats, never
// blocking a publisher). Clean check rounds never publish, so with
// journaling enabled and zero anomalies the sealed check path does not
// change by a single instruction.
//
// On-disk format: numbered segment files (journal-NNNNNNNN.seg), each
// beginning with an 8-byte magic and holding length-prefixed frames:
//
//	[u32le payload length][u32le CRC32C(payload)][payload]
//
// where the payload is the deterministic binary+JSON event codec
// (stream.Event.MarshalBinary). A reader that hits a short or
// corrupt frame treats it as the torn tail of a crashed write: Open
// truncates the segment back to its last valid frame, counts one
// truncation, and every earlier record survives. Segments rotate on
// size or age and old segments are pruned beyond a retention bound.
//
// Durability is a policy knob: PolicyInterval (default) fsyncs the
// active segment on a ticker, PolicyAlways after every drained batch,
// PolicyNone leaves flushing to the OS (a kill -9 loses at most the
// buffered tail — the frame CRCs make the loss detectable and
// recoverable, not corrupting).
package journal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"sedspec/internal/obs"
	"sedspec/internal/obs/stream"
)

// segMagic opens every segment file; a file without it is not a
// segment (and is left alone by retention pruning).
const segMagic = "SEDJRNL1"

// frameHeader is the fixed per-record overhead: 4-byte length + 4-byte
// CRC32C.
const frameHeader = 8

// maxFrame bounds a single record so a corrupt length field cannot ask
// the reader to allocate gigabytes: health snapshots of very large
// fleets (which older builds journaled) stay well under this.
const maxFrame = 16 << 20

// castagnoli is the CRC32C table (the polynomial with hardware support
// on amd64/arm64, the conventional storage checksum).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FsyncPolicy selects when the active segment is fsynced.
type FsyncPolicy int

const (
	// PolicyInterval fsyncs on a ticker (Options.FsyncInterval): bounded
	// data loss on power failure, negligible per-event cost. The default.
	PolicyInterval FsyncPolicy = iota
	// PolicyAlways fsyncs after every drained batch of events: an
	// anomaly is durable before the writer sleeps again.
	PolicyAlways
	// PolicyNone never fsyncs (the OS flushes on its own schedule). A
	// process kill loses only the bufio tail; a power failure may lose
	// more — either way the CRC framing recovers to the last good frame.
	PolicyNone
)

func (p FsyncPolicy) String() string {
	switch p {
	case PolicyInterval:
		return "interval"
	case PolicyAlways:
		return "always"
	case PolicyNone:
		return "none"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy resolves a policy name ("interval", "always", "none").
func ParsePolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "", "interval":
		return PolicyInterval, nil
	case "always":
		return PolicyAlways, nil
	case "none":
		return PolicyNone, nil
	default:
		return 0, fmt.Errorf("journal: unknown fsync policy %q (want interval, always, or none)", s)
	}
}

// Options configures a journal. Only Dir is required.
type Options struct {
	// Dir is the directory segment files live in (created if missing).
	Dir string
	// SegmentBytes rotates the active segment when it would exceed this
	// size (default 4 MiB).
	SegmentBytes int64
	// SegmentAge rotates the active segment when its first record is
	// older than this (default 1h), bounding how much history one
	// segment spans so retention pruning has useful granularity.
	SegmentAge time.Duration
	// MaxSegments bounds retention: when rotation would leave more than
	// this many segments, the oldest are deleted (default 16; the
	// default geometry retains 64 MiB of history).
	MaxSegments int
	// Fsync selects the durability policy (default PolicyInterval).
	Fsync FsyncPolicy
	// FsyncInterval is PolicyInterval's ticker period (default 250ms).
	FsyncInterval time.Duration
}

// persisted masks the kinds the journal keeps: every kind except the
// synthesized per-tail drop notices, which are subscriber-local and
// meaningless in history.
const persisted = stream.MaskAll &^ (1 << stream.KindDrop)

// subBuffer sizes the hub subscription ring the writer drains. A full
// ring sheds events into the drop counter rather than blocking
// publishers.
const subBuffer = 4096

func (o *Options) withDefaults() Options {
	out := *o
	if out.SegmentBytes <= 0 {
		out.SegmentBytes = 4 << 20
	}
	if out.SegmentAge <= 0 {
		out.SegmentAge = time.Hour
	}
	if out.MaxSegments <= 0 {
		out.MaxSegments = 16
	}
	if out.FsyncInterval <= 0 {
		out.FsyncInterval = 250 * time.Millisecond
	}
	return out
}

// segment is one on-disk file's in-memory index entry, maintained so
// queries can skip whole files by seq/time bounds without reading them.
type segment struct {
	idx      uint64
	path     string
	bytes    int64 // file size including magic
	records  uint64
	firstSeq uint64
	lastSeq  uint64
	firstNs  int64
	lastNs   int64
}

// Stats is a point-in-time summary of the journal.
type Stats = stream.JournalStats

// Journal is the durable event log. All methods are safe for
// concurrent use; appends come from the single writer goroutine
// Attach starts (or from Append in tests and tools).
type Journal struct {
	opts Options

	mu       sync.Mutex
	segs     []segment // oldest first; last is the active segment
	f        *os.File  // active segment
	w        *bufio.Writer
	dirty    bool // bytes written since the last fsync
	closed   bool
	appended uint64
	truncs   uint64
	rots     uint64
	pruned   uint64
	fsyncs   uint64
	encErrs  uint64
	wrErrs   uint64
	// fsyncHist counts fsync durations in log2 microsecond buckets
	// (bucket 0 = sub-microsecond), the same shape obs.Hist interpolates
	// quantiles from.
	fsyncHist [obs.NumBuckets]uint64

	sub  *stream.Sub
	done chan struct{}
	wg   sync.WaitGroup
}

// Open opens (creating if needed) the journal at opts.Dir, scanning
// existing segments into the index and recovering a torn tail: any
// segment whose final frame is short or fails its CRC is truncated
// back to the last valid frame (one truncation counted per repaired
// file). Appends resume into the newest segment.
func Open(opts Options) (*Journal, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("journal: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	j := &Journal{opts: opts, done: make(chan struct{})}

	entries, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, err
	}
	for _, ent := range entries {
		var idx uint64
		if ent.IsDir() {
			continue
		}
		if _, err := fmt.Sscanf(ent.Name(), "journal-%d.seg", &idx); err != nil {
			continue
		}
		seg, truncated, err := j.scanSegment(filepath.Join(opts.Dir, ent.Name()), idx)
		if err != nil {
			return nil, err
		}
		if truncated {
			j.truncs++
		}
		j.segs = append(j.segs, seg)
	}
	sort.Slice(j.segs, func(a, b int) bool { return j.segs[a].idx < j.segs[b].idx })

	// Resume into the newest segment unless it is already over the
	// rotation bound; otherwise start a fresh one.
	if n := len(j.segs); n > 0 && j.segs[n-1].bytes < opts.SegmentBytes {
		act := &j.segs[n-1]
		f, err := os.OpenFile(act.path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, err
		}
		if _, err := f.Seek(act.bytes, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
		j.f = f
	} else {
		if err := j.newSegmentLocked(); err != nil {
			return nil, err
		}
	}
	j.w = bufio.NewWriterSize(j.f, 64<<10)
	return j, nil
}

// scanSegment walks one file's frames, validating lengths and CRCs,
// and truncates the file at the last valid frame if the tail is torn.
func (j *Journal) scanSegment(path string, idx uint64) (segment, bool, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return segment{}, false, err
	}
	defer f.Close()

	seg := segment{idx: idx, path: path}
	r := bufio.NewReaderSize(f, 64<<10)
	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != segMagic {
		// A segment too short for its magic (or with the wrong one) is a
		// write torn inside the header: reset it to an empty segment.
		if err := f.Truncate(0); err != nil {
			return segment{}, false, err
		}
		if _, err := f.WriteAt([]byte(segMagic), 0); err != nil {
			return segment{}, false, err
		}
		seg.bytes = int64(len(segMagic))
		return seg, true, nil
	}
	valid := int64(len(segMagic))
	var hdr [frameHeader]byte
	var payload []byte
	torn := false
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			torn = err != io.EOF
			break
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > maxFrame {
			torn = true
			break
		}
		if uint32(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			torn = true
			break
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			torn = true
			break
		}
		var ev stream.Event
		if err := ev.UnmarshalBinary(payload); err != nil {
			torn = true
			break
		}
		valid += frameHeader + int64(n)
		seg.records++
		if seg.records == 1 {
			seg.firstSeq, seg.firstNs = ev.Seq, ev.TimeNs
		}
		seg.lastSeq, seg.lastNs = ev.Seq, ev.TimeNs
	}
	info, err := f.Stat()
	if err != nil {
		return segment{}, false, err
	}
	truncated := false
	if info.Size() != valid {
		// Bytes beyond the last valid frame: the torn tail of a crashed
		// write (or trailing garbage). Drop them so appends resume on a
		// clean frame boundary.
		if err := f.Truncate(valid); err != nil {
			return segment{}, false, err
		}
		truncated = true
	} else if torn {
		// A mid-file validation failure that still consumed the whole
		// size (cannot happen with the reads above, but keep the
		// accounting honest if the logic ever changes).
		truncated = true
	}
	seg.bytes = valid
	return seg, truncated, nil
}

// newSegmentLocked creates and activates the next segment file. Called
// with j.mu held (or before the journal is shared).
func (j *Journal) newSegmentLocked() error {
	var idx uint64 = 1
	if n := len(j.segs); n > 0 {
		idx = j.segs[n-1].idx + 1
	}
	path := filepath.Join(j.opts.Dir, fmt.Sprintf("journal-%08d.seg", idx))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return err
	}
	j.f = f
	j.segs = append(j.segs, segment{idx: idx, path: path, bytes: int64(len(segMagic))})
	return nil
}

// Attach subscribes the journal to the hub and starts the writer
// goroutine (plus the fsync ticker under PolicyInterval). Every kind
// but drop notices is drained and appended; overflow while the
// writer is busy is shed by the hub into the subscription's drop
// counter. Close stops everything and flushes.
func (j *Journal) Attach(hub *stream.Hub) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.sub != nil || j.closed {
		return
	}
	j.sub = hub.Subscribe(stream.WithKinds(persisted), stream.WithBuffer(subBuffer))
	j.wg.Add(1)
	go j.drain(j.sub)
	if j.opts.Fsync == PolicyInterval {
		j.wg.Add(1)
		go j.syncLoop()
	}
}

// drain is the writer goroutine: wait for events, then sweep the whole
// backlog in one pass so a burst costs one buffered-writer flush (and,
// under PolicyAlways, one fsync) instead of one per event. Events are
// popped only under j.mu, so a Query that sweeps the backlog itself
// (snapshotSegs) keeps the disk in seq order.
func (j *Journal) drain(sub *stream.Sub) {
	defer j.wg.Done()
	for sub.Wait(nil) {
		j.mu.Lock()
		j.drainLocked()
		j.mu.Unlock()
	}
}

// drainLocked appends the subscription's backlog; under PolicyAlways
// it then fsyncs.
func (j *Journal) drainLocked() {
	if j.sub == nil {
		return
	}
	n := 0
	for ev, ok := j.sub.TryRecv(); ok; ev, ok = j.sub.TryRecv() {
		j.appendLocked(&ev)
		n++
	}
	if n > 0 && j.opts.Fsync == PolicyAlways {
		j.syncLocked()
	}
}

// syncLoop is PolicyInterval's ticker: flush+fsync when bytes are
// waiting, skip clean ticks.
func (j *Journal) syncLoop() {
	defer j.wg.Done()
	t := time.NewTicker(j.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-j.done:
			return
		case <-t.C:
			j.mu.Lock()
			if !j.closed {
				j.syncLocked()
			}
			j.mu.Unlock()
		}
	}
}

// Append encodes and appends one event directly (the writer goroutine
// path is Attach; Append serves tools and tests). It does not fsync.
func (j *Journal) Append(ev *stream.Event) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	return j.appendLocked(ev)
}

func (j *Journal) appendLocked(ev *stream.Event) error {
	payload, err := ev.MarshalBinary()
	if err != nil {
		j.encErrs++
		return err
	}
	frame := int64(frameHeader + len(payload))
	act := &j.segs[len(j.segs)-1]
	if act.records > 0 &&
		(act.bytes+frame > j.opts.SegmentBytes ||
			(ev.TimeNs-act.firstNs) > j.opts.SegmentAge.Nanoseconds()) {
		if err := j.rotateLocked(); err != nil {
			j.wrErrs++
			return err
		}
		act = &j.segs[len(j.segs)-1]
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := j.w.Write(hdr[:]); err != nil {
		j.wrErrs++
		return err
	}
	if _, err := j.w.Write(payload); err != nil {
		j.wrErrs++
		return err
	}
	act.bytes += frame
	act.records++
	if act.records == 1 {
		act.firstSeq, act.firstNs = ev.Seq, ev.TimeNs
	}
	act.lastSeq, act.lastNs = ev.Seq, ev.TimeNs
	j.appended++
	j.dirty = true
	return nil
}

// rotateLocked seals the active segment (flush, fsync, close), opens
// the next one, and prunes retention.
func (j *Journal) rotateLocked() error {
	if err := j.w.Flush(); err != nil {
		return err
	}
	j.timedSync()
	if err := j.f.Close(); err != nil {
		return err
	}
	if err := j.newSegmentLocked(); err != nil {
		return err
	}
	j.w.Reset(j.f)
	j.rots++
	for len(j.segs) > j.opts.MaxSegments {
		old := j.segs[0]
		if err := os.Remove(old.path); err != nil && !os.IsNotExist(err) {
			return err
		}
		j.segs = j.segs[1:]
		j.pruned++
	}
	return nil
}

// syncLocked flushes the buffered writer and fsyncs if anything was
// written since the last sync.
func (j *Journal) syncLocked() {
	if err := j.w.Flush(); err != nil {
		j.wrErrs++
		return
	}
	if !j.dirty {
		return
	}
	j.timedSync()
	j.dirty = false
}

// timedSync fsyncs the active segment, recording the duration into the
// log2-microsecond histogram behind the p99 stat.
func (j *Journal) timedSync() {
	start := time.Now()
	if err := j.f.Sync(); err != nil {
		j.wrErrs++
		return
	}
	us := time.Since(start).Microseconds()
	j.fsyncHist[obs.BucketOf(uint64(us))]++
	j.fsyncs++
}

// Sync forces a flush+fsync of the active segment.
func (j *Journal) Sync() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.closed {
		j.syncLocked()
	}
}

// Stats snapshots the journal's counters and index totals.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statsLocked()
}

func (j *Journal) statsLocked() Stats {
	st := Stats{
		Dir:          j.opts.Dir,
		Segments:     len(j.segs),
		Appended:     j.appended,
		Truncations:  j.truncs,
		Rotations:    j.rots,
		Pruned:       j.pruned,
		Fsyncs:       j.fsyncs,
		EncodeErrors: j.encErrs,
		WriteErrors:  j.wrErrs,
	}
	for i := range j.segs {
		s := &j.segs[i]
		st.Bytes += s.bytes
		st.Records += s.records
		if s.records > 0 {
			if st.FirstSeq == 0 {
				st.FirstSeq = s.firstSeq
			}
			st.LastSeq = s.lastSeq
		}
	}
	if j.sub != nil {
		st.Dropped = j.sub.Dropped()
	}
	hist := obs.Hist{Buckets: j.fsyncHist}
	st.FsyncP99Us = hist.Quantile(0.99)
	return st
}

// Status is Stats under its older name.
func (j *Journal) Status() Stats { return j.Stats() }

// Close stops the writer (draining the subscription's remaining
// backlog first), fsyncs the active segment, and closes it.
// Idempotent; Query remains usable on a closed journal.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	sub := j.sub
	j.mu.Unlock()

	// Detach from the hub: Recv keeps delivering the buffered backlog
	// and reports done once drained, so the writer goroutine exits only
	// after persisting everything it was offered.
	if sub != nil {
		sub.Close()
	}
	close(j.done)
	j.wg.Wait()

	j.mu.Lock()
	defer j.mu.Unlock()
	j.syncLocked()
	j.closed = true
	return j.f.Close()
}
