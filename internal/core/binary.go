package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"sedspec/internal/analysis"
	"sedspec/internal/ir"
)

// Binary spec codec. The layout mirrors the JSON form (json.go) field for
// field, with every map rendered in sorted order so that encoding the same
// spec always yields the same bytes — the spec store content-addresses
// blobs by their hash, which only works if encoding is deterministic.
//
// Like the JSON form, the binary form references ops and terminators by
// position within the device program; decoding requires the same program.

// specMagic identifies a binary spec blob; specFormat is bumped on any
// layout change.
var specMagic = [4]byte{'S', 'E', 'D', 'S'}

const specFormat = 1

const (
	blkFlagReturns = 1 << iota
	blkFlagHalts
	blkFlagNBTD
)

const (
	dsodFlagSync = 1 << iota
	dsodFlagParamIndexed
)

const (
	nbtdFlagTakenSeen = 1 << iota
	nbtdFlagNotTakenSeen
)

type binWriter struct {
	buf []byte
}

func (w *binWriter) u(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *binWriter) i(v int)    { w.buf = binary.AppendVarint(w.buf, int64(v)) }
func (w *binWriter) b(v byte)   { w.buf = append(w.buf, v) }
func (w *binWriter) s(v string) { w.u(uint64(len(v))); w.buf = append(w.buf, v...) }
func (w *binWriter) bool(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// EncodeBinary serializes the specification into the compact binary form.
// The output is deterministic: encoding the same spec twice produces
// identical bytes.
func (s *Spec) EncodeBinary() ([]byte, error) {
	w := &binWriter{buf: make([]byte, 0, 4096)}
	w.buf = append(w.buf, specMagic[:]...)
	w.u(specFormat)
	w.s(s.Device)
	w.i(s.Entry)

	w.u(uint64(len(s.Params.Params)))
	for _, p := range s.Params.Params {
		w.i(p.Field)
		w.s(p.Name)
		w.b(byte(p.Class))
		w.i(p.Rule)
	}

	w.u(uint64(len(s.Blocks)))
	for _, b := range s.Blocks {
		if b == nil {
			w.b(0)
			continue
		}
		w.b(1)
		w.i(b.ID)
		w.i(b.Ref.Handler)
		w.i(b.Ref.Block)
		w.b(byte(b.Kind))
		var flags byte
		flags |= w.bool(b.Returns) * blkFlagReturns
		flags |= w.bool(b.Halts) * blkFlagHalts
		if b.NBTD != nil {
			flags |= blkFlagNBTD
		}
		w.b(flags)
		w.u(uint64(len(b.DSOD)))
		for _, d := range b.DSOD {
			w.i(d.Ref.Handler)
			w.i(d.Ref.Block)
			w.i(d.Ref.Op)
			var df byte
			df |= w.bool(d.Sync) * dsodFlagSync
			df |= w.bool(d.ParamIndexed) * dsodFlagParamIndexed
			w.b(df)
		}
		if b.NBTD != nil {
			n := b.NBTD
			w.b(byte(n.Kind))
			var nf byte
			nf |= w.bool(n.TakenSeen) * nbtdFlagTakenSeen
			nf |= w.bool(n.NotTakenSeen) * nbtdFlagNotTakenSeen
			w.b(nf)
			w.i(n.TakenNext)
			w.i(n.NotTakenNext)
			vals := make([]uint64, 0, len(n.CaseNext))
			for v := range n.CaseNext {
				vals = append(vals, v)
			}
			sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
			w.u(uint64(len(vals)))
			for _, v := range vals {
				w.u(v)
				w.i(n.CaseNext[v])
			}
		}
		w.i(b.Next)
		w.i(b.Visits)
	}

	refs := make([]ir.BlockRef, 0, len(s.byRef))
	for ref := range s.byRef {
		refs = append(refs, ref)
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Handler != refs[j].Handler {
			return refs[i].Handler < refs[j].Handler
		}
		return refs[i].Block < refs[j].Block
	})
	w.u(uint64(len(refs)))
	for _, ref := range refs {
		w.i(ref.Handler)
		w.i(ref.Block)
		w.i(s.byRef[ref])
	}

	fields := make([]int, 0, len(s.IndirectTargets))
	for f := range s.IndirectTargets {
		fields = append(fields, f)
	}
	sort.Ints(fields)
	w.u(uint64(len(fields)))
	for _, f := range fields {
		w.i(f)
		set := s.IndirectTargets[f]
		targets := make([]uint64, 0, len(set))
		for t := range set {
			targets = append(targets, t)
		}
		sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
		w.u(uint64(len(targets)))
		for _, t := range targets {
			w.u(t)
		}
	}

	cmds := make([]uint64, 0, len(s.CmdTable.Access))
	for c := range s.CmdTable.Access {
		cmds = append(cmds, c)
	}
	sort.Slice(cmds, func(i, j int) bool { return cmds[i] < cmds[j] })
	w.u(uint64(len(cmds)))
	for _, c := range cmds {
		w.u(c)
		set := s.CmdTable.Access[c]
		blocks := make([]int, 0, len(set))
		for b := range set {
			blocks = append(blocks, b)
		}
		sort.Ints(blocks)
		w.u(uint64(len(blocks)))
		for _, b := range blocks {
			w.i(b)
		}
	}

	global := make([]int, 0, len(s.CmdTable.Global))
	for b := range s.CmdTable.Global {
		global = append(global, b)
	}
	sort.Ints(global)
	w.u(uint64(len(global)))
	for _, b := range global {
		w.i(b)
	}

	st := s.Stats
	for _, v := range []int{
		st.TrainingRounds, st.ObservedBlocks, st.ESBlocks,
		st.CompressedBlocks, st.MergedBranches, st.KeptOps,
		st.DroppedOps, st.SyncPoints, st.Commands, st.IndirectTargets,
	} {
		w.i(v)
	}
	return w.buf, nil
}

type binReader struct {
	buf []byte
	off int
	err error
}

func (r *binReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("core: decode spec: "+format, args...)
	}
}

func (r *binReader) u() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("truncated uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) i() int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("truncated varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return int(v)
}

func (r *binReader) b() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail("truncated byte at offset %d", r.off)
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *binReader) s() string {
	n := r.u()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail("string length %d exceeds remaining %d bytes", n, len(r.buf)-r.off)
		return ""
	}
	v := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return v
}

// count reads a collection length and bounds it against the remaining
// input (each element needs at least one byte) so a corrupt length cannot
// drive a huge allocation.
func (r *binReader) count() int {
	n := r.u()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail("collection length %d exceeds remaining %d bytes", n, len(r.buf)-r.off)
		return 0
	}
	return int(n)
}

// DecodeBinary reads a binary specification and rebinds it to the device
// program it was built from, validating every program reference.
func DecodeBinary(prog *ir.Program, data []byte) (*Spec, error) {
	r := &binReader{buf: data}
	if len(data) < len(specMagic) || string(data[:4]) != string(specMagic[:]) {
		return nil, fmt.Errorf("core: decode spec: bad magic (not a binary spec blob)")
	}
	r.off = len(specMagic)
	if f := r.u(); r.err == nil && f != specFormat {
		return nil, fmt.Errorf("core: decode spec: unsupported format %d (want %d)", f, specFormat)
	}
	device := r.s()
	if r.err == nil && device != prog.Name {
		return nil, fmt.Errorf("core: spec is for device %q, program is %q", device, prog.Name)
	}

	s := &Spec{
		Device:          device,
		prog:            prog,
		Entry:           r.i(),
		byRef:           make(map[ir.BlockRef]int),
		IndirectTargets: make(map[int]map[uint64]bool),
		CmdTable: &CmdAccessTable{
			Access: make(map[uint64]map[int]bool),
			Global: make(map[int]bool),
		},
	}

	resolveOp := func(ref analysis.OpRef) *ir.Op {
		if r.err != nil {
			return nil
		}
		if ref.Handler < 0 || ref.Handler >= len(prog.Handlers) {
			r.fail("handler %d out of range", ref.Handler)
			return nil
		}
		h := &prog.Handlers[ref.Handler]
		if ref.Block < 0 || ref.Block >= len(h.Blocks) {
			r.fail("block %d out of range in %s", ref.Block, h.Name)
			return nil
		}
		blk := &h.Blocks[ref.Block]
		if ref.Op < 0 || ref.Op >= len(blk.Ops) {
			r.fail("op %d out of range in %s/%s", ref.Op, h.Name, blk.Label)
			return nil
		}
		return &blk.Ops[ref.Op]
	}

	params := make([]analysis.Param, r.count())
	for i := range params {
		params[i] = analysis.Param{
			Field: r.i(),
			Name:  r.s(),
			Class: analysis.ParamClass(r.b()),
			Rule:  r.i(),
		}
	}
	s.Params = analysis.NewSelection(prog, params)

	nblocks := r.count()
	s.Blocks = make([]*ESBlock, 0, nblocks)
	for bi := 0; bi < nblocks && r.err == nil; bi++ {
		if r.b() == 0 {
			s.Blocks = append(s.Blocks, nil)
			continue
		}
		b := &ESBlock{
			ID:   r.i(),
			Ref:  ir.BlockRef{Handler: r.i(), Block: r.i()},
			Kind: ir.BlockKind(r.b()),
		}
		flags := r.b()
		b.Returns = flags&blkFlagReturns != 0
		b.Halts = flags&blkFlagHalts != 0
		ndsod := r.count()
		if ndsod > 0 {
			// An encoded DSOD op takes at least four bytes, so the
			// input left bounds what a corrupt count can preallocate.
			b.DSOD = make([]DSODOp, 0, min(ndsod, (len(r.buf)-r.off)/4))
		}
		for i := 0; i < ndsod && r.err == nil; i++ {
			ref := analysis.OpRef{Handler: r.i(), Block: r.i(), Op: r.i()}
			df := r.b()
			op := resolveOp(ref)
			if r.err != nil {
				break
			}
			b.DSOD = append(b.DSOD, DSODOp{
				Op: op, Ref: ref,
				Sync:         df&dsodFlagSync != 0,
				ParamIndexed: df&dsodFlagParamIndexed != 0,
			})
		}
		if flags&blkFlagNBTD != 0 && r.err == nil {
			if b.Ref.Handler < 0 || b.Ref.Handler >= len(prog.Handlers) ||
				b.Ref.Block < 0 || b.Ref.Block >= len(prog.Handlers[b.Ref.Handler].Blocks) {
				r.fail("NBTD block ref out of range")
			} else {
				n := &NBTD{
					Kind: ir.TermKind(r.b()),
					Term: &prog.Handlers[b.Ref.Handler].Blocks[b.Ref.Block].Term,
				}
				nf := r.b()
				n.TakenSeen = nf&nbtdFlagTakenSeen != 0
				n.NotTakenSeen = nf&nbtdFlagNotTakenSeen != 0
				n.TakenNext = r.i()
				n.NotTakenNext = r.i()
				ncases := r.count()
				if ncases > 0 {
					n.CaseNext = make(map[uint64]int, ncases)
					for i := 0; i < ncases && r.err == nil; i++ {
						v := r.u()
						n.CaseNext[v] = r.i()
					}
				}
				b.NBTD = n
			}
		}
		b.Next = r.i()
		b.Visits = r.i()
		s.Blocks = append(s.Blocks, b)
	}

	nrefs := r.count()
	for i := 0; i < nrefs && r.err == nil; i++ {
		ref := ir.BlockRef{Handler: r.i(), Block: r.i()}
		s.byRef[ref] = r.i()
	}

	nind := r.count()
	for i := 0; i < nind && r.err == nil; i++ {
		f := r.i()
		ntargets := r.count()
		set := make(map[uint64]bool, ntargets)
		for j := 0; j < ntargets && r.err == nil; j++ {
			set[r.u()] = true
		}
		s.IndirectTargets[f] = set
	}

	ncmds := r.count()
	for i := 0; i < ncmds && r.err == nil; i++ {
		cmd := r.u()
		nb := r.count()
		set := make(map[int]bool, nb)
		for j := 0; j < nb && r.err == nil; j++ {
			set[r.i()] = true
		}
		s.CmdTable.Access[cmd] = set
	}

	nglobal := r.count()
	for i := 0; i < nglobal && r.err == nil; i++ {
		s.CmdTable.Global[r.i()] = true
	}

	for _, p := range []*int{
		&s.Stats.TrainingRounds, &s.Stats.ObservedBlocks, &s.Stats.ESBlocks,
		&s.Stats.CompressedBlocks, &s.Stats.MergedBranches, &s.Stats.KeptOps,
		&s.Stats.DroppedOps, &s.Stats.SyncPoints, &s.Stats.Commands,
		&s.Stats.IndirectTargets,
	} {
		*p = r.i()
	}
	if r.err != nil {
		return nil, r.err
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("core: decode spec: %w", err)
	}
	return s, nil
}
