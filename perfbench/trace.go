package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// roundRec is one traced delivery to the session checker: a single
// round (k=1) or a checked batch prefix of k rounds. Durations are
// measured from the PreIO (or PreIOBatch) entry.
type roundRec struct {
	start   time.Duration // PreIO entry, relative to epoch
	pre     time.Duration // PreIO / PreIOBatch duration
	post    time.Duration // PreIO entry to PostIO entry
	postDur time.Duration // PostIO duration
	k       int32
	batch   bool
}

// roundLog is a load goroutine's in-memory span buffer for rounds.
// delivered counts every I/O handed to the device, including those of
// records dropped with the warm-up.
type roundLog struct {
	recs      []roundRec
	delivered int64
}

func (l *roundLog) add(r roundRec) {
	l.recs = append(l.recs, r)
	l.delivered += int64(r.k)
}
func (l *roundLog) len() int       { return len(l.recs) }
func (l *roundLog) truncate(n int) { l.recs = l.recs[:n] }
func (l *roundLog) reset()         { l.recs, l.delivered = l.recs[:0], 0 }

// opSpan is one guest op; its child rounds are recs[first:last] of the
// goroutine's round log.
type opSpan struct {
	dev         string
	start, dur  time.Duration
	first, last int
}

// span is the exported form of a recorded span. Parent is the ID of
// the span that caused it (0 for none).
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent,omitempty"`
	Name     string  `json:"name"`
	StartUs  float64 `json:"start_us"`
	DurUs    float64 `json:"dur_us"`
	Children int     `json:"children,omitempty"`
}

// maxExportedSpans bounds the span file: the metrics are computed from
// every span in memory, the file keeps the first ones for inspection.
const maxExportedSpans = 20000

// spanWriter collects spans for export at exit.
type spanWriter struct {
	spans []span
}

// add records a span and returns its ID; spans past the export bound
// are dropped and get ID 0.
func (w *spanWriter) add(name string, parent int, start, dur time.Duration, children int) int {
	if len(w.spans) >= maxExportedSpans {
		return 0
	}
	id := len(w.spans) + 1
	w.spans = append(w.spans, span{ID: id, Parent: parent, Name: name, StartUs: us(start), DurUs: us(dur), Children: children})
	return id
}

// write stores the spans as JSON lines under dir, after a header line
// holding the run's fingerprint.
func (w *spanWriter) write(dir, name string, header any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for _, s := range w.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// epoch is the reference point of recorded span start times.
var epoch = time.Now()

func us(d time.Duration) float64 { return float64(d) / 1e3 }
