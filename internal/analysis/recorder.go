package analysis

import (
	"encoding/json"
	"fmt"
	"io"

	"sedspec/internal/interp"
	"sedspec/internal/ir"
)

// ReqInfo summarizes the I/O request that opened a round.
type ReqInfo struct {
	Space interp.Space `json:"space"`
	Addr  uint64       `json:"addr"`
	Write bool         `json:"write"`
	Data  []byte       `json:"data,omitempty"`
}

// Round is one I/O interaction's worth of observation events — one entry of
// the device-state-change log.
type Round struct {
	Req    ReqInfo           `json:"req"`
	Events []interp.ObsEvent `json:"events"`
	// Faulted is set when the device faulted during the round; faulted
	// rounds are excluded from specification construction.
	Faulted bool `json:"faulted,omitempty"`
}

// Log is the device-state-change log (paper §IV): the control flow and
// state changes of an emulated device across training rounds. The ES-CFG
// constructor consumes it together with the device source.
type Log struct {
	Device string   `json:"device"`
	Rounds []*Round `json:"rounds"`
}

// Recorder accumulates a Log. Install it as the interpreter's observer and
// bracket each dispatch with Begin/End.
//
// A recorder from NewCaptureRecorder watches every field of the device,
// so one training run can be traced and observed together before the
// device-state parameters are known. It keeps only the values of each
// capturing event, in a chunked store, and Project later narrows them to
// the selected watch list.
type Recorder struct {
	log *Log
	cur *Round
	// events and vals collect the open round; End copies events out at
	// exact size and appends vals to the value store.
	events []interp.ObsEvent
	vals   []uint64

	// Watch-all capture (NewCaptureRecorder): every capturing event's
	// nfields values, in event order, nfields*captureChunk per chunk.
	nfields int
	chunks  [][]uint64
}

// captureChunk is the number of capturing events per value-store chunk.
const captureChunk = 1024

// captured marks, until Project, the events of a capture recorder whose
// values sit in the value store.
var captured = []interp.FieldVal{}

var _ interp.Observer = (*Recorder)(nil)

// NewRecorder returns a recorder for the named device. It keeps a copy of
// each event's Fields.
func NewRecorder(device string) *Recorder {
	return &Recorder{log: &Log{Device: device}}
}

// NewCaptureRecorder returns a recorder that captures every field of
// prog. Install Watch() as the interpreter's watch set and call Project
// once the run is over.
func NewCaptureRecorder(prog *ir.Program) *Recorder {
	return &Recorder{log: &Log{Device: prog.Name}, nfields: len(prog.Fields)}
}

// Watch returns the watch set a capture recorder needs: every field, in
// index order. It is nil for a plain recorder.
func (r *Recorder) Watch() []int {
	if r.nfields == 0 {
		return nil
	}
	all := make([]int, r.nfields)
	for i := range all {
		all[i] = i
	}
	return all
}

// Begin opens a round for a request about to be dispatched, discarding a
// round left open.
func (r *Recorder) Begin(req *interp.Request) {
	dataCopy := make([]byte, len(req.Data))
	copy(dataCopy, req.Data)
	r.cur = &Round{Req: ReqInfo{
		Space: req.Space,
		Addr:  req.Addr,
		Write: req.Write,
		Data:  dataCopy,
	}}
	r.events = r.events[:0]
	r.vals = r.vals[:0]
}

// Observe implements interp.Observer. The interpreter reuses ev.Fields
// for the next event, so a capture recorder copies the values out and a
// plain one copies the slice.
func (r *Recorder) Observe(ev interp.ObsEvent) {
	if r.cur == nil {
		return
	}
	switch {
	case len(ev.Fields) == 0:
	case r.nfields > 0:
		for _, f := range ev.Fields {
			r.vals = append(r.vals, f.Value)
		}
		ev.Fields = captured
	default:
		ev.Fields = append([]interp.FieldVal(nil), ev.Fields...)
	}
	r.events = append(r.events, ev)
}

// End closes the round, marking whether the device faulted.
func (r *Recorder) End(res *interp.Result) {
	if r.cur == nil {
		return
	}
	if res != nil && res.Fault != nil {
		r.cur.Faulted = true
	}
	if len(r.events) > 0 {
		r.cur.Events = append(make([]interp.ObsEvent, 0, len(r.events)), r.events...)
	}
	r.storeVals()
	r.log.Rounds = append(r.log.Rounds, r.cur)
	r.cur = nil
}

// storeVals moves the closed round's values into the chunked store. Chunks
// hold whole events, so no event's values straddle two chunks.
func (r *Recorder) storeVals() {
	v := r.vals
	for len(v) > 0 {
		n := len(r.chunks)
		if n == 0 || len(r.chunks[n-1]) == cap(r.chunks[n-1]) {
			r.chunks = append(r.chunks, make([]uint64, 0, captureChunk*r.nfields))
			n++
		}
		last := r.chunks[n-1]
		k := copy(last[len(last):cap(last)], v)
		r.chunks[n-1] = last[:len(last)+k]
		v = v[k:]
	}
}

// Project narrows a capture recorder's log onto watch, a list of field
// indices: each capturing event's Fields become the watched fields'
// values in watch order, or nil when watch is empty. The result is the
// log an observation run with the interpreter's watch set to watch
// records. Project releases the value store and leaves a plain recorder
// over the projected log, so a later Project or Log returns that log.
func (r *Recorder) Project(watch []int) *Log {
	if r.nfields == 0 {
		return r.log
	}
	var ncaptured int
	for _, c := range r.chunks {
		ncaptured += len(c) / r.nfields
	}
	var slab []interp.FieldVal
	if len(watch) > 0 {
		slab = make([]interp.FieldVal, ncaptured*len(watch))
	}
	chunk, off := 0, 0
	for _, round := range r.log.Rounds {
		for i := range round.Events {
			ev := &round.Events[i]
			if ev.Fields == nil {
				continue
			}
			if off == len(r.chunks[chunk]) {
				chunk, off = chunk+1, 0
			}
			vals := r.chunks[chunk][off : off+r.nfields]
			off += r.nfields
			if len(watch) == 0 {
				ev.Fields = nil
				continue
			}
			fields := slab[:len(watch):len(watch)]
			slab = slab[len(watch):]
			for j, fi := range watch {
				fields[j] = interp.FieldVal{Field: fi, Value: vals[fi]}
			}
			ev.Fields = fields
		}
	}
	r.chunks, r.nfields = nil, 0
	return r.log
}

// Log returns the accumulated log. Until Project runs, a capture
// recorder's capturing events hold an empty placeholder for their Fields.
func (r *Recorder) Log() *Log { return r.log }

// Save writes the log as JSON.
func (l *Log) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(l); err != nil {
		return fmt.Errorf("analysis: save log: %w", err)
	}
	return nil
}

// LoadLog reads a JSON log.
func LoadLog(r io.Reader) (*Log, error) {
	var l Log
	if err := json.NewDecoder(r).Decode(&l); err != nil {
		return nil, fmt.Errorf("analysis: load log: %w", err)
	}
	return &l, nil
}

// MergeLogs unions device-state-change logs for the same device, the
// paper's false-positive remedy (§VIII): developers and testers each
// contribute training logs, and the specification is rebuilt from their
// union. Logs for other devices are rejected.
func MergeLogs(logs ...*Log) (*Log, error) {
	if len(logs) == 0 {
		return nil, fmt.Errorf("analysis: nothing to merge")
	}
	out := &Log{Device: logs[0].Device}
	for _, l := range logs {
		if l.Device != out.Device {
			return nil, fmt.Errorf("analysis: cannot merge log for %q into %q", l.Device, out.Device)
		}
		out.Rounds = append(out.Rounds, l.Rounds...)
	}
	return out, nil
}

// CleanRounds returns the non-faulted rounds.
func (l *Log) CleanRounds() []*Round {
	out := make([]*Round, 0, len(l.Rounds))
	for _, r := range l.Rounds {
		if !r.Faulted {
			out = append(out, r)
		}
	}
	return out
}
