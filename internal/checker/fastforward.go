package checker

import (
	"sedspec/internal/core"
	"sedspec/internal/ir"
)

// Loop fast-forward: the threaded engine's exact shortcut through a
// runaway round.
//
// An emulation-loop exploit (CVE-2016-7909's zero-length ring scan) is
// detected when the ES-CFG simulation walks past its step budget. Walking
// all 2^20 steps one at a time is correct but slow, and almost all of
// those steps repeat one loop iteration that changes nothing but one
// counter. Once a round has run budget/ffGateDiv steps — far past any
// benign round — the engine records one real iteration of the loop it is
// in, proves that the following iterations would take exactly the same
// path and change only that counter by the same constant, applies a run
// of them at once, and resumes the real walk. The budget anomaly (or the
// loop exit) is then raised by the ordinary handlers at the same block
// and step count as a full walk: shadow state, Stats, coverage counts and
// the anomaly stream stay byte-identical to the reference engine, which
// keeps walking every step as the oracle.
//
// The proof is a symbolic pass over the recorded instructions that
// classes every value as invariant (the same in every iteration), F+c (the
// moving field F at iteration start plus a constant, at a fixed width), or
// other, and gives up on anything that could differ between iterations
// (see ffPass). It relies on guest memory not changing during a check
// round: one goroutine drives each machine, and the checker never writes
// guest memory (suppressed writebacks live in the round's DMA journal).

const (
	// ffGateDiv places a round's fast-forward gate at budget/ffGateDiv
	// steps. Benign rounds average under 30 steps, so only a round already
	// deep into a runaway loop reaches it.
	ffGateDiv = 16
	// ffMaxPath caps the instructions one recorded iteration may run; a
	// longer iteration is walked normally.
	ffMaxPath = 4096
)

// ffScratch is a session's reusable fast-forward state, allocated on its
// first attempt so clean sessions never pay for it.
type ffScratch struct {
	path   []int32     // pcs of the recorded iteration, in order
	ops    [][2]uint64 // each recorded branch's compare operands
	before []byte      // shadow arena at iteration start
	covB   []uint64    // pending coverage at iteration start
	covE   []uint64
	cls    []ffVal // symbolic class per temp
	seen   []uint8 // ffReadFirst / ffWritten per temp
	guards []ffGuard
}

// Value classes of the symbolic pass. The zero value is invariant.
const (
	ffInv uint8 = iota
	ffLin       // (F + c) & m
	ffOther
)

// Temp states of the symbolic pass.
const (
	ffReadFirst uint8 = iota + 1 // read before any write this iteration
	ffWritten
)

// ffVal is a value's class. For ffLin, m is the mask the value was last
// computed under: the value is (F + c) & m for F the moving field's value
// at iteration start and some constant c (^0 for F itself as loaded).
type ffVal struct {
	kind uint8
	m    uint64
}

// ffGuard is a branch whose compare puts F+c against an invariant: the
// only kind of branch whose outcome may change between iterations.
type ffGuard struct {
	i     *tinstr
	fIsA  bool   // F+c is the compare's left operand
	c, m  uint64 // the F+c operand is (F + c) & m
	k     uint64 // the invariant operand
	taken bool   // the recorded outcome
}

// holds reports whether the guard takes its recorded arm when the moving
// field starts the iteration at f.
func (g *ffGuard) holds(f uint64) bool {
	v := (f + g.c) & g.m
	a, b := v, g.k
	if !g.fIsA {
		a, b = g.k, v
	}
	i := g.i
	return i.Rel.EvalMasked(a, b, i.Imm2, uint64(1)<<(i.Bits2-1), i.Signed2) == g.taken
}

// fastForward runs from the parked resume pc h after a round crossed its
// gate. It walks one real iteration (h back to h at the same frame depth),
// and when the iteration is provably repeatable skips all but the last of
// the identical iterations that fit in the budget. It returns the pc the
// dispatch loop continues at, or the round's end sentinel when the round
// ended while recording.
func (c *Checker) fastForward(h int32) int32 {
	c.ffAttempts++
	ff := c.ff
	if ff == nil {
		ff = &ffScratch{}
		c.ff = ff
	}
	code := c.tprog.code
	depth := len(c.frames)
	steps0 := c.tsteps
	journal0 := len(c.dmaLog)
	cmdActive, activeCmd, suppress, resync := c.cmdActive, c.activeCmd, c.suppressAccess, c.needResync
	ff.before = append(ff.before[:0], c.shadow.Bytes()...)
	if c.cov != nil {
		pb, pe := c.cov.Pending()
		ff.covB = append(ff.covB[:0], pb...)
		ff.covE = append(ff.covE[:0], pe...)
	}
	ff.path, ff.ops = ff.path[:0], ff.ops[:0]

	// Record: the real handlers run, so a round that ends inside the
	// iteration ends exactly as it would have anyway.
	pc := h
	for {
		if len(ff.path) == ffMaxPath {
			return pc
		}
		i := &code[pc]
		ff.path = append(ff.path, pc)
		pc = i.fn(c, i, pc)
		if pc < 0 {
			return pc
		}
		if i.Kind == core.TBranch || i.Kind == core.TBranchArith {
			ff.ops = append(ff.ops, [2]uint64{c.ttemps[i.A2], c.ttemps[i.B2]})
		}
		if pc == h && len(c.frames) == depth {
			break
		}
	}
	if len(c.dmaLog) != journal0 || c.cmdActive != cmdActive || c.activeCmd != activeCmd ||
		c.suppressAccess != suppress || c.needResync != resync {
		return h
	}
	fi, f0, d, ok := c.ffMovingField(ff.before)
	if !ok || !c.ffProve(ff, fi, f0) {
		return h
	}

	// Count the next iterations that provably repeat the recorded one: up
	// to the first whose F-guards change outcome, and no further than the
	// budget allows (the budget checks inside them all pass).
	s := c.tsteps - steps0
	limit := (c.budget - c.tsteps) / s
	n := limit
	if fi >= 0 {
		fm := c.prog.Fields[fi].Width.Mask()
		f := (f0 + d) & fm
		for n = 0; n < limit; n++ {
			fj := (f + uint64(n)*d) & fm
			held := true
			for g := range ff.guards {
				if !ff.guards[g].holds(fj) {
					held = false
					break
				}
			}
			if !held {
				break
			}
		}
	}
	// Skip all but the last of them: walking that one for real leaves
	// every temp and flag the iteration writes exactly as a full walk
	// would, so nothing after the loop can tell the difference.
	k := n - 1
	if k < 1 {
		return h
	}
	if fi >= 0 {
		c.shadow.SetInt(fi, c.shadow.Int(fi)+uint64(k)*d)
	}
	c.tsteps += k * s
	c.ffSkippedSteps += uint64(k * s)
	if c.cov != nil {
		pb, pe := c.cov.Pending()
		for j, v := range pb {
			pb[j] += uint64(k) * (v - ff.covB[j])
		}
		for j, v := range pe {
			pe[j] += uint64(k) * (v - ff.covE[j])
		}
	}
	return h
}

// ffMovingField compares the shadow arena with its copy from the start of
// the iteration. Exactly one integer field may have changed: it returns
// that field, its value at iteration start, and the delta modulo its
// width. fi is -1 when nothing changed; ok is false when anything else
// did.
func (c *Checker) ffMovingField(before []byte) (fi int, f0, d uint64, ok bool) {
	now := c.shadow.Bytes()
	lo, hi := -1, -1
	for j := range now {
		if now[j] != before[j] {
			if lo < 0 {
				lo = j
			}
			hi = j
		}
	}
	if lo < 0 {
		return -1, 0, 0, true
	}
	for fi := range c.prog.Fields {
		f := &c.prog.Fields[fi]
		if f.Kind != ir.FieldInt || lo < f.Offset || hi >= f.Offset+f.ByteSize {
			continue
		}
		for j := f.ByteSize - 1; j >= 0; j-- {
			f0 = f0<<8 | uint64(before[f.Offset+j])
		}
		return fi, f0, (c.shadow.Int(fi) - f0) & f.Width.Mask(), true
	}
	return -1, 0, 0, false
}

// ffPass is the symbolic pass over one recorded iteration. It proves that
// an iteration starting from the same state with only the moving field F
// different takes the same path — except where an F-guard's outcome
// changes, which the caller checks concretely — and ends with F moved by
// the same delta and every other field, temp read and flag unchanged. It
// gives up (ok = false) on:
//
//   - a temp read before it is written and also written in the iteration
//     (a loop-carried temp);
//   - a store of a non-invariant value to a field other than F, a store to
//     F of anything but F+c at F's width or wider, and a parameter-checked
//     store of a non-invariant value (its overflow flags may differ);
//   - buffer ops, DMA writes and transfers, request reads, environment
//     reads (sync points), calls and returns;
//   - a DMA read at a non-invariant address;
//   - a switch on a non-invariant selector;
//   - a div or mod by a non-invariant divisor;
//   - a branch comparing anything but F+c against an invariant, or two
//     invariants.
type ffPass struct {
	ff     *ffScratch
	fi     int32
	fm     uint64
	curF   ffVal // F's class as a load would see it now
	stored bool  // F was stored this iteration
	ok     bool
}

// ffProve runs the symbolic pass and fills ff.guards. f0 is the moving
// field's value at the start of the recorded iteration.
func (c *Checker) ffProve(ff *ffScratch, fi int, f0 uint64) bool {
	nt := len(c.ttemps)
	if cap(ff.cls) < nt {
		ff.cls = make([]ffVal, nt)
		ff.seen = make([]uint8, nt)
	}
	ff.cls, ff.seen = ff.cls[:nt], ff.seen[:nt]
	clear(ff.cls)
	clear(ff.seen)
	ff.guards = ff.guards[:0]
	p := ffPass{ff: ff, fi: int32(fi), curF: ffVal{kind: ffLin, m: ^uint64(0)}, ok: true}
	if fi >= 0 {
		p.fm = c.prog.Fields[fi].Width.Mask()
	}
	code := c.tprog.code
	nb := 0
	for _, pc := range ff.path {
		i := &code[pc]
		switch i.Kind {
		case core.TNext:
		case core.TConst:
			p.def(i.Dst, ffVal{})
		case core.TLoad:
			p.def(i.Dst, p.load(i.Field))
		case core.TLoadFunc:
			p.def(i.Dst, ffVal{})
		case core.TArith:
			p.def(i.Dst, p.arith(i.ALU, i.A, i.B, i.Imm))
		case core.TStore:
			p.store(i.Field, p.use(i.B), i.Checked)
		case core.TStoreFunc:
			if p.use(i.B).kind != ffInv {
				return false
			}
		case core.TDMARead:
			if p.use(i.A).kind != ffInv {
				return false
			}
			p.def(i.Dst, ffVal{})
		case core.TLoadArith:
			p.def(i.Dst, p.load(i.Field))
			p.def(i.Dst2, p.arith(i.ALU2, i.A2, i.B2, i.Imm2))
		case core.TConstArith:
			p.def(i.Dst, ffVal{})
			p.def(i.Dst2, p.arith(i.ALU2, i.A2, i.B2, i.Imm2))
		case core.TConstStore:
			p.def(i.Dst, ffVal{})
			p.store(i.Field2, p.use(i.B2), i.Checked2)
		case core.TArithStore:
			p.def(i.Dst, p.arith(i.ALU, i.A, i.B, i.Imm))
			p.store(i.Field2, p.use(i.B2), i.Checked2)
		case core.TLoadConst:
			p.def(i.Dst, p.load(i.Field))
			p.def(i.Dst2, ffVal{})
		case core.TConstConst:
			p.def(i.Dst, ffVal{})
			p.def(i.Dst2, ffVal{})
		case core.TStoreConst:
			p.store(i.Field, p.use(i.B), i.Checked)
			p.def(i.Dst2, ffVal{})
		case core.TStoreLoad:
			p.store(i.Field, p.use(i.B), i.Checked)
			p.def(i.Dst2, p.load(i.Field2))
		case core.TSwitch:
			if p.use(i.A2).kind != ffInv {
				return false
			}
		case core.TBranch, core.TBranchArith:
			if i.Kind == core.TBranchArith {
				p.def(i.Dst, p.arith(i.ALU, i.A, i.B, i.Imm))
			}
			p.guard(i, ff.ops[nb], f0)
			nb++
		default:
			// Buffer ops, DMA writes and transfers, request and
			// environment reads, calls, returns, and round-ending
			// terminators.
			return false
		}
		if !p.ok {
			return false
		}
	}
	// F moved, so the pass must have seen it stored (at F's width).
	return fi < 0 || p.stored
}

// use reads a temp's class. A temp not yet written this iteration holds
// its value from before the loop, which is invariant as long as the
// iteration never writes it (def enforces that).
func (p *ffPass) use(t int32) ffVal {
	if p.ff.seen[t] == ffWritten {
		return p.ff.cls[t]
	}
	p.ff.seen[t] = ffReadFirst
	return ffVal{}
}

// def writes a temp. Writing a temp the iteration already read as its
// pre-loop value makes it loop-carried.
func (p *ffPass) def(t int32, v ffVal) {
	if p.ff.seen[t] == ffReadFirst {
		p.ok = false
	}
	p.ff.seen[t] = ffWritten
	p.ff.cls[t] = v
}

// load classes an integer field read: F as the iteration has left it so
// far, any other field invariant (stores to it are invariant and it ends
// the iteration as it started).
func (p *ffPass) load(field int32) ffVal {
	if field == p.fi {
		return p.curF
	}
	return ffVal{}
}

func (p *ffPass) store(field int32, v ffVal, isParam bool) {
	if isParam && v.kind != ffInv {
		p.ok = false
		return
	}
	if field != p.fi {
		if v.kind != ffInv {
			p.ok = false
		}
		return
	}
	// (F + c) & m truncated to F's width is (F + c) & fm when m covers fm.
	if v.kind != ffLin || v.m&p.fm != p.fm {
		p.ok = false
		return
	}
	p.curF = ffVal{kind: ffLin, m: p.fm}
	p.stored = true
}

// arith classes an ALU result at width mask. F+c plus or minus an
// invariant stays F+c' as long as the width does not widen past the
// operand's mask: ((F + c) & m + k) & mask = (F + c + k) & mask.
func (p *ffPass) arith(alu ir.ALU, a, b int32, mask uint64) ffVal {
	va, vb := p.use(a), p.use(b)
	if (alu == ir.ALUDiv || alu == ir.ALUMod) && vb.kind != ffInv {
		p.ok = false // the divisor could reach zero
		return ffVal{kind: ffOther}
	}
	switch {
	case va.kind == ffInv && vb.kind == ffInv:
		return ffVal{}
	case va.kind == ffLin && vb.kind == ffInv && va.m&mask == mask && (alu == ir.ALUAdd || alu == ir.ALUSub),
		va.kind == ffInv && vb.kind == ffLin && vb.m&mask == mask && alu == ir.ALUAdd:
		return ffVal{kind: ffLin, m: mask}
	}
	return ffVal{kind: ffOther}
}

// guard classes a branch compare. Two invariants take the recorded arm
// every iteration; F+c against an invariant becomes an F-guard, whose
// constant is read off the recorded operands (ops) and F's recorded start
// value f0.
func (p *ffPass) guard(i *tinstr, ops [2]uint64, f0 uint64) {
	ca, cb := p.use(i.A2), p.use(i.B2)
	g := ffGuard{i: i, taken: i.Rel.EvalMasked(ops[0], ops[1], i.Imm2, uint64(1)<<(i.Bits2-1), i.Signed2)}
	switch {
	case ca.kind == ffInv && cb.kind == ffInv:
		return
	case ca.kind == ffLin && cb.kind == ffInv:
		g.fIsA, g.m, g.c, g.k = true, ca.m, ops[0]-f0, ops[1]
	case ca.kind == ffInv && cb.kind == ffLin:
		g.m, g.c, g.k = cb.m, ops[1]-f0, ops[0]
	default:
		p.ok = false
		return
	}
	p.ff.guards = append(p.ff.guards, g)
}
