package analysis

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"slices"

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
// device-state parameters are known. It keeps each closed round encoded
// in one append-only byte stream (a few bytes per event, each capturing
// event's values as the changes from the previous one) and Project later
// decodes it, narrowing the values to the selected watch list.
type Recorder struct {
	log *Log
	// The open round: its request, events and (capture) values. End
	// moves them into the log or the stream.
	open    bool
	req     ReqInfo
	reqData []byte
	events  []interp.ObsEvent
	vals    []uint64

	// Watch-all capture (NewCaptureRecorder): the closed rounds' stream,
	// the last captured values (the delta base) and the counts Project
	// sizes its output by.
	nfields   int
	stream    []byte
	prev      []uint64
	rounds    int
	nevents   int
	ncaptured int
	ndata     int
}

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
	return &Recorder{
		log:     &Log{Device: prog.Name},
		nfields: len(prog.Fields),
		prev:    make([]uint64, len(prog.Fields)),
	}
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

// Fork returns a recorder that continues this one's log: it starts with
// the rounds recorded so far, and what it records next is its own. The
// recorder forked from is never written through the fork (the fork's
// first append copies the shared stream or round list), so several forks
// of one recorder may run concurrently. Fork between rounds.
func (r *Recorder) Fork() *Recorder {
	return &Recorder{
		log:       &Log{Device: r.log.Device, Rounds: slices.Clip(r.log.Rounds)},
		nfields:   r.nfields,
		stream:    slices.Clip(r.stream),
		prev:      slices.Clone(r.prev),
		rounds:    r.rounds,
		nevents:   r.nevents,
		ncaptured: r.ncaptured,
		ndata:     r.ndata,
	}
}

// Begin opens a round for a request about to be dispatched, discarding a
// round left open.
func (r *Recorder) Begin(req *interp.Request) {
	r.open = true
	r.req = ReqInfo{Space: req.Space, Addr: req.Addr, Write: req.Write}
	r.reqData = append(r.reqData[:0], req.Data...)
	r.events = r.events[:0]
	r.vals = r.vals[:0]
}

// Observe implements interp.Observer. The interpreter reuses ev.Fields
// for the next event, so a capture recorder copies the values out (End
// reads only whether Fields was set) and a plain one copies the slice.
func (r *Recorder) Observe(ev interp.ObsEvent) {
	if !r.open {
		return
	}
	switch {
	case len(ev.Fields) == 0:
	case r.nfields > 0:
		for _, f := range ev.Fields {
			r.vals = append(r.vals, f.Value)
		}
	default:
		ev.Fields = append([]interp.FieldVal(nil), ev.Fields...)
	}
	r.events = append(r.events, ev)
}

// End closes the round, marking whether the device faulted.
func (r *Recorder) End(res *interp.Result) {
	if !r.open {
		return
	}
	r.open = false
	faulted := res != nil && res.Fault != nil
	if r.nfields > 0 {
		r.encodeRound(faulted)
		return
	}
	round := &Round{Req: r.req, Faulted: faulted}
	round.Req.Data = append(make([]byte, 0, len(r.reqData)), r.reqData...)
	if len(r.events) > 0 {
		round.Events = append(make([]interp.ObsEvent, 0, len(r.events)), r.events...)
	}
	r.log.Rounds = append(r.log.Rounds, round)
}

// Stream flag bits: a round's request and fault, an event's branch
// outcome, capture and arithmetic flags.
const (
	roundWrite = 1 << iota
	roundFaulted
)

const (
	evTaken = 1 << iota
	evCaptured
	evCarry
	evOverflow
	evZero
	evSign
)

// encodeRound appends the closed round to a capture recorder's stream:
// the request (flags, space, addr, data) and the event count, then each
// event; a capturing event is followed by the fields whose values
// changed since the previous capturing event, as (index gap, value)
// pairs ended by a zero gap.
func (r *Recorder) encodeRound(faulted bool) {
	var flags byte
	if r.req.Write {
		flags |= roundWrite
	}
	if faulted {
		flags |= roundFaulted
	}
	b := append(r.stream, flags, byte(r.req.Space))
	b = binary.AppendUvarint(b, r.req.Addr)
	b = binary.AppendUvarint(b, uint64(len(r.reqData)))
	b = append(b, r.reqData...)
	b = binary.AppendUvarint(b, uint64(len(r.events)))
	vals := r.vals
	for i := range r.events {
		ev := &r.events[i]
		ef := flag(ev.Taken, evTaken) | flag(ev.Fields != nil, evCaptured) |
			flag(ev.Flags.Carry, evCarry) | flag(ev.Flags.Overflow, evOverflow) |
			flag(ev.Flags.Zero, evZero) | flag(ev.Flags.Sign, evSign)
		b = append(b, ef, byte(ev.Kind), byte(ev.Term))
		b = binary.AppendVarint(b, int64(ev.Seq))
		b = binary.AppendVarint(b, int64(ev.Block.Handler))
		b = binary.AppendVarint(b, int64(ev.Block.Block))
		b = binary.AppendUvarint(b, ev.Addr)
		b = binary.AppendVarint(b, int64(ev.Depth))
		b = binary.AppendUvarint(b, ev.Target)
		b = binary.AppendUvarint(b, ev.CmdValue)
		b = binary.AppendVarint(b, int64(ev.IndirectField))
		if ev.Fields == nil {
			continue
		}
		last := -1
		for fi, v := range vals[:r.nfields] {
			if v != r.prev[fi] {
				b = binary.AppendUvarint(b, uint64(fi-last))
				b = binary.AppendUvarint(b, v)
				r.prev[fi], last = v, fi
			}
		}
		b = append(b, 0)
		vals = vals[r.nfields:]
		r.ncaptured++
	}
	r.stream = b
	r.rounds++
	r.nevents += len(r.events)
	r.ndata += len(r.reqData)
}

// flag returns bit when on is set, else 0.
func flag(on bool, bit byte) byte {
	if on {
		return bit
	}
	return 0
}

// Project narrows a capture recorder's log onto watch, a list of field
// indices: each capturing event's Fields become the watched fields'
// values in watch order, or nil when watch is empty. The result is the
// log an observation run with the interpreter's watch set to watch
// records. Project releases the stream and leaves a plain recorder over
// the projected log, so a later Project or Log returns that log.
func (r *Recorder) Project(watch []int) *Log {
	if r.nfields == 0 {
		return r.log
	}
	rounds := make([]Round, r.rounds)
	ptrs := make([]*Round, r.rounds)
	events := make([]interp.ObsEvent, r.nevents)
	data := make([]byte, r.ndata)
	var slab []interp.FieldVal
	if len(watch) > 0 {
		slab = make([]interp.FieldVal, r.ncaptured*len(watch))
	}
	vals := make([]uint64, r.nfields)
	s := r.stream
	uvarint := func() uint64 {
		v, n := binary.Uvarint(s)
		s = s[n:]
		return v
	}
	varint := func() int {
		v, n := binary.Varint(s)
		s = s[n:]
		return int(v)
	}
	for i := range rounds {
		rd := &rounds[i]
		flags, space := s[0], s[1]
		s = s[2:]
		rd.Faulted = flags&roundFaulted != 0
		rd.Req = ReqInfo{Space: interp.Space(space), Addr: uvarint(), Write: flags&roundWrite != 0}
		n := int(uvarint())
		rd.Req.Data, data = data[:n:n], data[n:]
		s = s[copy(rd.Req.Data, s):]
		if nev := int(uvarint()); nev > 0 {
			rd.Events, events = events[:nev:nev], events[nev:]
		}
		for j := range rd.Events {
			ef := s[0]
			ev := &rd.Events[j]
			*ev = interp.ObsEvent{
				Kind:  ir.BlockKind(s[1]),
				Term:  ir.TermKind(s[2]),
				Taken: ef&evTaken != 0,
				Flags: interp.Flags{
					Carry: ef&evCarry != 0, Overflow: ef&evOverflow != 0,
					Zero: ef&evZero != 0, Sign: ef&evSign != 0,
				},
			}
			s = s[3:]
			ev.Seq = varint()
			ev.Block = ir.BlockRef{Handler: varint(), Block: varint()}
			ev.Addr = uvarint()
			ev.Depth = varint()
			ev.Target = uvarint()
			ev.CmdValue = uvarint()
			ev.IndirectField = varint()
			if ef&evCaptured == 0 {
				continue
			}
			for fi := -1; ; {
				gap := int(uvarint())
				if gap == 0 {
					break
				}
				fi += gap
				vals[fi] = uvarint()
			}
			if len(watch) == 0 {
				continue
			}
			fields := slab[:len(watch):len(watch)]
			slab = slab[len(watch):]
			for k, fi := range watch {
				fields[k] = interp.FieldVal{Field: fi, Value: vals[fi]}
			}
			ev.Fields = fields
		}
		ptrs[i] = rd
	}
	r.log.Rounds = ptrs
	r.stream, r.prev, r.nfields = nil, nil, 0
	return r.log
}

// Log returns the accumulated log. A capture recorder's log holds its
// rounds only once Project has decoded them.
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
