package checker

import (
	"encoding/binary"
	"fmt"

	"sedspec/internal/core"
	"sedspec/internal/interp"
	"sedspec/internal/ir"
)

// simulateThreaded is the production check engine: direct threaded-code
// dispatch over the stream core.SealThreaded lowered. The hot loop is two
// loads and an indirect call per instruction —
//
//	for pc >= 0 { i := &code[pc]; pc = i.fn(c, i, pc) }
//
// — with no op-code re-decoding, no block-table lookups on transitions
// (successor pcs are compiled in), no per-op step-counter writes (step
// totals are batched per block via TOp.StepsAt), and preplanned call
// frames (callee entry pc and temp-bank size are instruction immediates).
// The peephole-fused instructions execute two spec ops per dispatch.
// Handlers get their own pc so a slow path (an anomaly report, a buffer
// op's field geometry, a switch's arm lookup) can read the instruction's
// cold side, cold[pc].
//
// The engine is behaviourally identical to the Reference oracle
// (reference.go): every anomaly string, step count and shadow mutation
// matches, and the differential tests in the repository root pin the two
// to byte-identical anomaly streams. Steady-state rounds allocate
// nothing.

// Negative pc sentinels returned by handlers to end the dispatch loop.
const (
	// tpcDone ends the round cleanly (final return or halt).
	tpcDone int32 = -1
	// tpcStop ends the round silently after a mid-round stop (frames
	// cleared by a disabled-strategy path or an arena escape).
	tpcStop int32 = -2
	// tpcAnom ends the round with the anomaly parked in Checker.tanom.
	tpcAnom int32 = -3
	// tpcGate leaves the dispatch loop once when a round crosses its
	// fast-forward gate, with the resume pc parked in Checker.tpark.
	tpcGate int32 = -4
)

// thandler executes the threaded instruction i at pc and returns the
// next pc.
type thandler func(c *Checker, i *tinstr, pc int32) int32

// tinstr pairs the compiled instruction with its resolved handler, so the
// function pointer lives next to the operands it dispatches on.
type tinstr struct {
	fn thandler
	core.TOp
}

// threadedProg is a spec version's executable form: the lowered stream
// with handlers bound, its cold side, and the block index. Immutable
// after build, shared by every session that adopts the version.
type threadedProg struct {
	code    []tinstr
	cold    []core.TCold
	blockPC []int32
	entry   int32
}

// buildThreaded binds handlers to a freshly lowered stream. The lowered
// core.TOp slice is not kept: code is the compiled spec's one copy of it.
func buildThreaded(tc *core.ThreadedCode) *threadedProg {
	code := make([]tinstr, len(tc.Instrs))
	for pc := range tc.Instrs {
		op := &tc.Instrs[pc]
		fn := tHandlers[op.Kind]
		if fn == nil {
			panic(fmt.Sprintf("checker: no handler for threaded instruction kind %v", op.Kind))
		}
		code[pc] = tinstr{fn: fn, TOp: *op}
	}
	return &threadedProg{code: code, cold: tc.Cold, blockPC: tc.BlockPC, entry: tc.EntryPC}
}

// tBlk, tOp and tOp2 read instruction pc's cold side: its block (ref,
// terminator, switch arms), its op, and a fused pair's second op.
func (c *Checker) tBlk(pc int32) *core.SealedBlock { return c.tprog.cold[pc].Blk }
func (c *Checker) tOp(pc int32) *ir.Op             { return c.tprog.cold[pc].Op }
func (c *Checker) tOp2(pc int32) *ir.Op            { return c.tprog.cold[pc].Op2 }

// tHandlers maps instruction kinds to their handlers. Filled by init to
// keep the handler functions free to reference each other.
var tHandlers [int(core.TDangling) + 1]thandler

func init() {
	tHandlers[core.TConst] = tConstH
	tHandlers[core.TLoad] = tLoadH
	tHandlers[core.TLoadFunc] = tLoadFuncH
	tHandlers[core.TArith] = tArithH
	tHandlers[core.TStore] = tStoreH
	tHandlers[core.TStoreFunc] = tStoreFuncH
	tHandlers[core.TBufLoad] = tBufLoadH
	tHandlers[core.TBufStore] = tBufStoreH
	tHandlers[core.TIOToBuf] = tIOToBufH
	tHandlers[core.TDMAToBuf] = tDMAToBufH
	tHandlers[core.TDMAFromBuf] = tDMAFromBufH
	tHandlers[core.TDMARead] = tDMAReadH
	tHandlers[core.TDMAWrite] = tDMAWriteH
	tHandlers[core.TIOIn] = tIOInH
	tHandlers[core.TIOAddr] = tIOAddrH
	tHandlers[core.TIOLen] = tIOLenH
	tHandlers[core.TIOIsWrite] = tIOIsWriteH
	tHandlers[core.TEnvRead] = tEnvReadH
	tHandlers[core.TCall] = tCallH
	tHandlers[core.TCallPtr] = tCallPtrH
	tHandlers[core.TLoadArith] = tLoadArithH
	tHandlers[core.TConstArith] = tConstArithH
	tHandlers[core.TBufLoadStore] = tBufLoadStoreH
	tHandlers[core.TConstStore] = tConstStoreH
	tHandlers[core.TArithStore] = tArithStoreH
	tHandlers[core.TLoadConst] = tLoadConstH
	tHandlers[core.TConstConst] = tConstConstH
	tHandlers[core.TConstBufStore] = tConstBufStoreH
	tHandlers[core.TBufStoreConst] = tBufStoreConstH
	tHandlers[core.TStoreConst] = tStoreConstH
	tHandlers[core.TStoreLoad] = tStoreLoadH
	tHandlers[core.THalt] = tHaltH
	tHandlers[core.TReturn] = tReturnH
	tHandlers[core.TNext] = tNextH
	tHandlers[core.TNoSucc] = tNoSuccH
	tHandlers[core.TBranch] = tBranchH
	tHandlers[core.TBranchArith] = tBranchArithH
	tHandlers[core.TSwitch] = tSwitchH
	tHandlers[core.TDangling] = tDanglingH
}

// simulateThreaded runs one round over the compiled stream. Round framing
// (entry push, step accounting) mirrors Reference.simulate, plus the
// coverage entry hit the oracle does not count. A round
// that runs past budget/ffGateDiv steps leaves the dispatch loop once for
// a loop fast-forward attempt (fastforward.go) and continues where it
// says.
func (c *Checker) simulateThreaded(req *interp.Request) *Anomaly {
	tp := c.tprog
	if !c.batching {
		c.frames = c.frames[:0]
		c.tempArena = c.tempArena[:0]
		c.flagArena = c.flagArena[:0]
		c.dmaLog = c.dmaLog[:0]
	} else if len(c.tempArena) != 0 {
		// Mid-batch after a Halts round: the frame stack is already empty
		// but the arenas kept their residue (a per-round reset would
		// have cleared it). The DMA journal stays — it is the batch's
		// guest-memory overlay.
		c.frames = c.frames[:0]
		c.tempArena = c.tempArena[:0]
		c.flagArena = c.flagArena[:0]
	}
	c.treq = req
	c.tsteps = 0
	c.tanom = nil
	c.pushT(int32(c.sealed.Entry), int32(c.entryTemps))
	if c.cov != nil {
		c.cov.HitBlock(c.sealed.Entry)
	}

	c.stepGate = c.budget / ffGateDiv

	code := tp.code
	pc := tp.entry
	for {
		for pc >= 0 {
			i := &code[pc]
			pc = i.fn(c, i, pc)
		}
		if pc != tpcGate {
			break
		}
		pc = c.fastForward(c.tpark)
	}

	a := c.tanom
	c.roundSteps = c.tsteps
	if a == nil {
		if c.batching {
			c.batchSteps += uint64(c.tsteps)
		} else {
			c.stats.stepsSimulated.Add(uint64(c.tsteps))
		}
	}
	c.treq = nil
	c.tanom = nil
	return a
}

// pushT opens a frame with the preplanned temp-bank size, carving its
// banks out of the flat arenas (bump allocation plus memclr; the return
// trims them back) and caching them on the checker, so op handlers reach
// them without a frame load.
func (c *Checker) pushT(blockID, numTemps int32) {
	off := len(c.tempArena)
	end := off + int(numTemps)
	if end > cap(c.tempArena) {
		ta := make([]uint64, end, 2*end)
		copy(ta, c.tempArena)
		c.tempArena = ta
		fa := make([]interp.Flags, end, 2*end)
		copy(fa, c.flagArena)
		c.flagArena = fa
	} else {
		c.tempArena = c.tempArena[:end]
		c.flagArena = c.flagArena[:end]
	}
	ts := c.tempArena[off:end:end]
	fs := c.flagArena[off:end:end]
	if !c.noClear {
		clear(ts)
		clear(fs)
	}
	c.frames = append(c.frames, simFrame{block: int(blockID), temps: ts, flags: fs, off: off})
	c.ttemps, c.tflags = ts, fs
}

// tRaise parks an anomaly for simulateThreaded and ends the loop. Nil-safe
// for the condOrStop convention: a disabled conditional-jump strategy
// yields a silent stop instead of an anomaly.
func (c *Checker) tRaise(a *Anomaly) int32 {
	if a == nil {
		return tpcStop
	}
	c.tanom = a
	return tpcAnom
}

// tDivZero ends the round on a division by zero, flushing the batched
// steps up to and including the faulting op.
func (c *Checker) tDivZero(ref ir.BlockRef, src ir.SourceRef, flush int) int32 {
	c.tsteps += flush
	if c.enabled[StrategyParameter] {
		return c.tRaise(c.anomaly(StrategyParameter, ref, src, "division by zero"))
	}
	c.stop()
	return tpcStop
}

// tBudget raises the per-round step-budget anomaly at terminator pc
// (steps already flushed by the terminator).
func (c *Checker) tBudget(pc int32) int32 {
	return c.tRaise(c.condOrStop(c.tBlk(pc).Ref, ir.SourceRef{}, "simulation budget exceeded (possible emulation loop)"))
}

// tOverGate handles a terminator whose step total st crossed the round's
// gate. Past the budget it raises the budget anomaly. Below it the round
// has run far beyond any benign length: the gate rises to the budget, so
// a round makes at most one fast-forward attempt, the terminator
// completes normally, and the dispatch loop exits once with the
// successor pc parked for fastForward.
func (c *Checker) tOverGate(i *tinstr, pc int32, st int) int32 {
	if st > c.budget {
		c.tsteps = st
		return c.tBudget(pc)
	}
	c.stepGate = c.budget
	var next int32
	if i.Kind == core.TBranchArith {
		next = tBranchH(c, i, pc) // the fused compare already ran
	} else {
		next = i.fn(c, i, pc)
	}
	if next < 0 || c.ffOff {
		return next
	}
	c.tpark = next
	return tpcGate
}

// tGoto performs a resolved block transition: command-end clearing, the
// access-control check, the coverage tick, and the post-stop frame check,
// in exactly Reference.transition's order.
func (c *Checker) tGoto(pc, id, edge int32, cmdEnd bool) int32 {
	if cmdEnd {
		c.cmdActive = false
	}
	if c.accessControl && c.cmdActive && !c.suppressAccess &&
		c.enabled[StrategyConditionalJump] &&
		!c.cmdAccess.Has(int(id)) {
		if nextB := c.sealed.Block(int(id)); nextB != nil {
			return c.tRaise(tagEdge(c.anomaly(StrategyConditionalJump, nextB.Ref, ir.SourceRef{},
				"block not accessible under command %#x", c.activeCmd), "access", c.activeCmd))
		}
	}
	if c.cov != nil {
		if edge != core.NoEdge {
			c.cov.HitEdge(int(edge))
		} else {
			c.cov.HitBlock(int(id))
		}
	}
	if len(c.frames) == 0 {
		// A disabled-strategy path cleared the frames mid-block; the
		// reference engine notices at its next loop head.
		return tpcStop
	}
	return pc
}

// ---- op handlers ----

func tConstH(c *Checker, i *tinstr, _ int32) int32 {
	c.ttemps[i.Dst] = i.Imm
	c.tflags[i.Dst] = interp.Flags{}
	return i.Next
}

func tLoadH(c *Checker, i *tinstr, _ int32) int32 {
	c.ttemps[i.Dst] = c.shadow.Int(int(i.Field))
	c.tflags[i.Dst] = interp.Flags{}
	return i.Next
}

func tLoadFuncH(c *Checker, i *tinstr, _ int32) int32 {
	c.ttemps[i.Dst] = c.shadow.FuncPtr(int(i.Field))
	c.tflags[i.Dst] = interp.Flags{}
	return i.Next
}

func tArithH(c *Checker, i *tinstr, pc int32) int32 {
	v, fl, divZero := interp.ALUExecPre(i.ALU, c.ttemps[i.A], c.ttemps[i.B], i.Imm, uint(i.Bits), i.Signed)
	if divZero {
		return c.tDivZero(c.tBlk(pc).Ref, c.tOp(pc).Src0, int(i.StepsAt))
	}
	c.ttemps[i.Dst] = v
	c.tflags[i.Dst] = fl
	return i.Next
}

func tStoreH(c *Checker, i *tinstr, pc int32) int32 {
	if i.Checked {
		if a := c.checkIntStore(c.tBlk(pc).Ref, c.tOp(pc), c.tflags); a != nil {
			c.tsteps += int(i.StepsAt)
			return c.tRaise(a)
		}
	}
	c.shadow.SetInt(int(i.Field), c.ttemps[i.B])
	return i.Next
}

func tStoreFuncH(c *Checker, i *tinstr, _ int32) int32 {
	c.shadow.SetFuncPtr(int(i.Field), c.ttemps[i.B])
	return i.Next
}

func tBufLoadH(c *Checker, i *tinstr, pc int32) int32 {
	v, a := c.bufAccess(c.tBlk(pc).Ref, c.tOp(pc), i.Checked, c.ttemps[i.A], 0, 0, false)
	if a != nil {
		c.tsteps += int(i.StepsAt)
		return c.tRaise(a)
	}
	c.ttemps[i.Dst] = v
	c.tflags[i.Dst] = interp.Flags{}
	return i.Next
}

func tBufStoreH(c *Checker, i *tinstr, pc int32) int32 {
	if _, a := c.bufAccess(c.tBlk(pc).Ref, c.tOp(pc), i.Checked, c.ttemps[i.A], 0, byte(c.ttemps[i.B]), true); a != nil {
		c.tsteps += int(i.StepsAt)
		return c.tRaise(a)
	}
	return i.Next
}

func tIOToBufH(c *Checker, i *tinstr, pc int32) int32 {
	if a := c.checkCopyRange(c.tBlk(pc).Ref, c.tOp(pc), i.Checked, c.ttemps); a != nil {
		c.tsteps += int(i.StepsAt)
		return c.tRaise(a)
	}
	c.treq.Skip(int(c.ttemps[i.B] & 0xFFFF_FFFF))
	return i.Next
}

func tDMAToBufH(c *Checker, i *tinstr, pc int32) int32 {
	// See Reference.execDSOD: inbound DMA is performed against the shadow.
	if a := c.checkCopyRange(c.tBlk(pc).Ref, c.tOp(pc), i.Checked, c.ttemps); a != nil {
		c.tsteps += int(i.StepsAt)
		return c.tRaise(a)
	}
	if a := c.dmaToShadow(c.tBlk(pc).Ref, c.tOp(pc), i.Checked, c.ttemps); a != nil {
		c.tsteps += int(i.StepsAt)
		return c.tRaise(a)
	}
	if len(c.frames) == 0 {
		c.tsteps += int(i.StepsAt)
		return tpcStop // simulation stopped mid-copy
	}
	return i.Next
}

func tDMAFromBufH(c *Checker, i *tinstr, pc int32) int32 {
	// See Reference.execDSOD: outbound DMA is bounds-checked, never performed.
	if a := c.checkCopyRange(c.tBlk(pc).Ref, c.tOp(pc), i.Checked, c.ttemps); a != nil {
		c.tsteps += int(i.StepsAt)
		return c.tRaise(a)
	}
	return i.Next
}

func tDMAReadH(c *Checker, i *tinstr, pc int32) int32 {
	buf := &c.dmaBuf
	n := int(i.Bits) >> 3
	addr := c.ttemps[i.A]
	if err := c.env.DMARead(addr, buf[:n]); err != nil {
		c.tsteps += int(i.StepsAt)
		if c.enabled[StrategyParameter] {
			return c.tRaise(c.anomaly(StrategyParameter, c.tBlk(pc).Ref, c.tOp(pc).Src0, "DMA read out of guest memory: %v", err))
		}
		c.stop()
		return tpcStop
	}
	// Overlay this round's suppressed writebacks (skipped entirely in the
	// common no-writeback round, and by a range compare when the read
	// cannot touch any journaled writeback).
	if len(c.dmaLog) > 0 && addr < c.dmaHi && c.dmaLo < addr+uint64(n) {
		for k := range c.dmaLog {
			c.dmaLog[k].overlay(buf[:], addr, n)
		}
	}
	v := binary.LittleEndian.Uint64(buf[:])
	if n < 8 {
		v &= i.Imm
	}
	c.ttemps[i.Dst] = v
	c.tflags[i.Dst] = interp.Flags{}
	return i.Next
}

func tDMAWriteH(c *Checker, i *tinstr, _ int32) int32 {
	// Suppressed guest write: journal it for this round's reads.
	c.journalDMAWrite(c.ttemps[i.A], c.ttemps[i.B], i.Bits>>3)
	return i.Next
}

func tIOInH(c *Checker, i *tinstr, _ int32) int32 {
	c.ttemps[i.Dst] = c.treq.Consume(int(i.Bits) >> 3)
	c.tflags[i.Dst] = interp.Flags{}
	return i.Next
}

func tIOAddrH(c *Checker, i *tinstr, _ int32) int32 {
	c.ttemps[i.Dst] = c.treq.Addr
	c.tflags[i.Dst] = interp.Flags{}
	return i.Next
}

func tIOLenH(c *Checker, i *tinstr, _ int32) int32 {
	c.ttemps[i.Dst] = uint64(c.treq.Remaining())
	c.tflags[i.Dst] = interp.Flags{}
	return i.Next
}

func tIOIsWriteH(c *Checker, i *tinstr, _ int32) int32 {
	if c.treq.Write {
		c.ttemps[i.Dst] = 1
	} else {
		c.ttemps[i.Dst] = 0
	}
	c.tflags[i.Dst] = interp.Flags{}
	return i.Next
}

func tEnvReadH(c *Checker, i *tinstr, _ int32) int32 {
	// Sync point: synchronize the non-derivable value with the device
	// environment (paper §V-D).
	c.ttemps[i.Dst] = c.env.ReadEnv(ir.EnvKind(i.Imm))
	c.tflags[i.Dst] = interp.Flags{}
	c.stats.syncPointsResolved.Add(1)
	return i.Next
}

func tCallH(c *Checker, i *tinstr, _ int32) int32 {
	c.tsteps += int(i.StepsAt)
	if n := len(c.frames); n > 0 {
		c.frames[n-1].op = int(i.Next2)
	}
	c.pushT(i.ID, int32(i.Imm))
	if c.cov != nil {
		c.cov.HitBlock(int(i.ID))
	}
	return i.Next
}

func tCallPtrH(c *Checker, i *tinstr, pc int32) int32 {
	// Always a flush site: whether the call descends is a runtime decision,
	// so the batched count commits here either way.
	c.tsteps += int(i.StepsAt)
	target := c.shadow.FuncPtr(int(i.Field))
	if c.enabled[StrategyIndirectJump] && !c.sealed.LegitimateTarget(int(i.Field), target) {
		return c.tRaise(tagEdge(c.anomaly(StrategyIndirectJump, c.tBlk(pc).Ref, c.tOp(pc).Src0,
			"indirect jump via %q to unauthorized target %#x",
			c.prog.Fields[i.Field].Name, target), "indirect", target))
	}
	if target >= uint64(len(c.prog.Handlers)) {
		// Unchecked corrupted pointer: the device would crash.
		c.stop()
		return tpcStop
	}
	callee := c.sealed.HandlerEntry(int(target))
	if callee == core.NoBlock {
		return i.Next // opaque target
	}
	if n := len(c.frames); n > 0 {
		c.frames[n-1].op = int(i.Next)
	}
	c.pushT(int32(callee), int32(c.sealed.HandlerTemps(int(target))))
	if c.cov != nil {
		c.cov.HitBlock(callee)
	}
	return c.tprog.blockPC[callee]
}

// ---- fused handlers ----

func tLoadArithH(c *Checker, i *tinstr, pc int32) int32 {
	tt, tf := c.ttemps, c.tflags
	tt[i.Dst] = c.shadow.Int(int(i.Field))
	tf[i.Dst] = interp.Flags{}
	v, fl, divZero := interp.ALUExecPre(i.ALU2, tt[i.A2], tt[i.B2], i.Imm2, uint(i.Bits2), i.Signed2)
	if divZero {
		return c.tDivZero(c.tBlk(pc).Ref, c.tOp2(pc).Src0, int(i.StepsAt))
	}
	tt[i.Dst2] = v
	tf[i.Dst2] = fl
	return i.Next
}

func tConstArithH(c *Checker, i *tinstr, pc int32) int32 {
	tt, tf := c.ttemps, c.tflags
	tt[i.Dst] = i.Imm
	tf[i.Dst] = interp.Flags{}
	v, fl, divZero := interp.ALUExecPre(i.ALU2, tt[i.A2], tt[i.B2], i.Imm2, uint(i.Bits2), i.Signed2)
	if divZero {
		return c.tDivZero(c.tBlk(pc).Ref, c.tOp2(pc).Src0, int(i.StepsAt))
	}
	tt[i.Dst2] = v
	tf[i.Dst2] = fl
	return i.Next
}

func tBufLoadStoreH(c *Checker, i *tinstr, pc int32) int32 {
	v, a := c.bufAccess(c.tBlk(pc).Ref, c.tOp(pc), i.Checked, c.ttemps[i.A], 0, 0, false)
	if a != nil {
		// The first op of the pair faulted: the reference engine counts
		// only that op's step.
		c.tsteps += int(i.StepsAt) - 1
		return c.tRaise(a)
	}
	c.ttemps[i.Dst] = v
	c.tflags[i.Dst] = interp.Flags{}
	if i.Checked2 {
		if a := c.checkIntStore(c.tBlk(pc).Ref, c.tOp2(pc), c.tflags); a != nil {
			c.tsteps += int(i.StepsAt)
			return c.tRaise(a)
		}
	}
	c.shadow.SetInt(int(i.Field2), c.ttemps[i.B2])
	return i.Next
}

func tConstStoreH(c *Checker, i *tinstr, pc int32) int32 {
	c.ttemps[i.Dst] = i.Imm
	c.tflags[i.Dst] = interp.Flags{}
	if i.Checked2 {
		if a := c.checkIntStore(c.tBlk(pc).Ref, c.tOp2(pc), c.tflags); a != nil {
			c.tsteps += int(i.StepsAt)
			return c.tRaise(a)
		}
	}
	c.shadow.SetInt(int(i.Field2), c.ttemps[i.B2])
	return i.Next
}

func tArithStoreH(c *Checker, i *tinstr, pc int32) int32 {
	v, fl, divZero := interp.ALUExecPre(i.ALU, c.ttemps[i.A], c.ttemps[i.B], i.Imm, uint(i.Bits), i.Signed)
	if divZero {
		// First op of the pair: the reference engine counts only up to
		// the arith.
		return c.tDivZero(c.tBlk(pc).Ref, c.tOp(pc).Src0, int(i.StepsAt)-1)
	}
	c.ttemps[i.Dst] = v
	c.tflags[i.Dst] = fl
	if i.Checked2 {
		if a := c.checkIntStore(c.tBlk(pc).Ref, c.tOp2(pc), c.tflags); a != nil {
			c.tsteps += int(i.StepsAt)
			return c.tRaise(a)
		}
	}
	c.shadow.SetInt(int(i.Field2), c.ttemps[i.B2])
	return i.Next
}

func tLoadConstH(c *Checker, i *tinstr, _ int32) int32 {
	tt, tf := c.ttemps, c.tflags
	tt[i.Dst] = c.shadow.Int(int(i.Field))
	tf[i.Dst] = interp.Flags{}
	tt[i.Dst2] = i.Imm2
	tf[i.Dst2] = interp.Flags{}
	return i.Next
}

func tConstConstH(c *Checker, i *tinstr, _ int32) int32 {
	tt, tf := c.ttemps, c.tflags
	tt[i.Dst] = i.Imm
	tf[i.Dst] = interp.Flags{}
	tt[i.Dst2] = i.Imm2
	tf[i.Dst2] = interp.Flags{}
	return i.Next
}

func tConstBufStoreH(c *Checker, i *tinstr, pc int32) int32 {
	c.ttemps[i.Dst] = i.Imm
	c.tflags[i.Dst] = interp.Flags{}
	if _, a := c.bufAccess(c.tBlk(pc).Ref, c.tOp2(pc), i.Checked2, c.ttemps[i.A2], 0, byte(c.ttemps[i.B2]), true); a != nil {
		c.tsteps += int(i.StepsAt)
		return c.tRaise(a)
	}
	return i.Next
}

func tBufStoreConstH(c *Checker, i *tinstr, pc int32) int32 {
	if _, a := c.bufAccess(c.tBlk(pc).Ref, c.tOp(pc), i.Checked, c.ttemps[i.A], 0, byte(c.ttemps[i.B]), true); a != nil {
		c.tsteps += int(i.StepsAt) - 1
		return c.tRaise(a)
	}
	c.ttemps[i.Dst2] = i.Imm2
	c.tflags[i.Dst2] = interp.Flags{}
	return i.Next
}

func tStoreConstH(c *Checker, i *tinstr, pc int32) int32 {
	if i.Checked {
		if a := c.checkIntStore(c.tBlk(pc).Ref, c.tOp(pc), c.tflags); a != nil {
			c.tsteps += int(i.StepsAt) - 1
			return c.tRaise(a)
		}
	}
	c.shadow.SetInt(int(i.Field), c.ttemps[i.B])
	c.ttemps[i.Dst2] = i.Imm2
	c.tflags[i.Dst2] = interp.Flags{}
	return i.Next
}

func tStoreLoadH(c *Checker, i *tinstr, pc int32) int32 {
	if i.Checked {
		if a := c.checkIntStore(c.tBlk(pc).Ref, c.tOp(pc), c.tflags); a != nil {
			c.tsteps += int(i.StepsAt) - 1
			return c.tRaise(a)
		}
	}
	// SetInt before Int: the loaded field may be the one just stored.
	c.shadow.SetInt(int(i.Field), c.ttemps[i.B])
	c.ttemps[i.Dst2] = c.shadow.Int(int(i.Field2))
	c.tflags[i.Dst2] = interp.Flags{}
	return i.Next
}

// ---- terminators ----

func tHaltH(c *Checker, i *tinstr, pc int32) int32 {
	st := c.tsteps + int(i.StepsAt)
	if st > c.stepGate {
		return c.tOverGate(i, pc, st)
	}
	c.tsteps = st + 1 // the block transition itself
	c.frames = c.frames[:0]
	return tpcDone
}

func tReturnH(c *Checker, i *tinstr, pc int32) int32 {
	st := c.tsteps + int(i.StepsAt)
	if st > c.stepGate {
		return c.tOverGate(i, pc, st)
	}
	c.tsteps = st + 1
	n := len(c.frames)
	if n == 0 {
		// Frames were cleared mid-block by a disabled-strategy path; the
		// round is already stopped.
		return tpcStop
	}
	f := &c.frames[n-1]
	c.tempArena = c.tempArena[:f.off]
	c.flagArena = c.flagArena[:f.off]
	c.frames = c.frames[:n-1]
	if i.CmdEnd {
		c.cmdActive = false
	}
	if n == 1 {
		return tpcDone // dispatch frame returned: round complete
	}
	p := &c.frames[n-2]
	c.ttemps, c.tflags = p.temps, p.flags
	return int32(p.op)
}

func tNextH(c *Checker, i *tinstr, pc int32) int32 {
	st := c.tsteps + int(i.StepsAt)
	if st > c.stepGate {
		return c.tOverGate(i, pc, st)
	}
	c.tsteps = st + 1
	return c.tGoto(i.Next, i.ID, i.Edge, i.CmdEnd)
}

func tNoSuccH(c *Checker, i *tinstr, pc int32) int32 {
	st := c.tsteps + int(i.StepsAt)
	if st > c.stepGate {
		return c.tOverGate(i, pc, st)
	}
	c.tsteps = st + 1
	return c.tRaise(tagEdge(c.condOrStop(c.tBlk(pc).Ref, ir.SourceRef{}, "successor outside specification"), "successor", 0))
}

// tBranchTo resolves a branch arm after the condition evaluated. An arm
// training never took has no successor id.
func (c *Checker) tBranchTo(i *tinstr, pc int32, taken bool) int32 {
	if taken {
		if i.ID == core.NoBlock {
			return c.tRaise(tagEdge(c.condOrStop(c.tBlk(pc).Ref, c.tBlk(pc).Term.Src0, "untraversed %s branch", "taken"), "branch-taken", 0))
		}
		return c.tGoto(i.Next, i.ID, i.Edge, i.CmdEnd)
	}
	if i.ID2 == core.NoBlock {
		return c.tRaise(tagEdge(c.condOrStop(c.tBlk(pc).Ref, c.tBlk(pc).Term.Src0, "untraversed %s branch", "not-taken"), "branch-not-taken", 0))
	}
	return c.tGoto(i.Next2, i.ID2, i.Edge2, i.CmdEnd)
}

func tBranchH(c *Checker, i *tinstr, pc int32) int32 {
	st := c.tsteps + int(i.StepsAt)
	if st > c.stepGate {
		return c.tOverGate(i, pc, st)
	}
	c.tsteps = st + 1
	return c.tBranchTo(i, pc, i.Rel.EvalMasked(c.ttemps[i.A2], c.ttemps[i.B2], i.Imm2, uint64(1)<<(i.Bits2-1), i.Signed2))
}

func tBranchArithH(c *Checker, i *tinstr, pc int32) int32 {
	// The fused trailing compare: full arith semantics first (its step is
	// included in StepsAt), then the ordinary branch epilogue.
	v, fl, divZero := interp.ALUExecPre(i.ALU, c.ttemps[i.A], c.ttemps[i.B], i.Imm, uint(i.Bits), i.Signed)
	if divZero {
		return c.tDivZero(c.tBlk(pc).Ref, c.tOp(pc).Src0, int(i.StepsAt))
	}
	c.ttemps[i.Dst] = v
	c.tflags[i.Dst] = fl
	st := c.tsteps + int(i.StepsAt)
	if st > c.stepGate {
		return c.tOverGate(i, pc, st)
	}
	c.tsteps = st + 1
	return c.tBranchTo(i, pc, i.Rel.EvalMasked(c.ttemps[i.A2], c.ttemps[i.B2], i.Imm2, uint64(1)<<(i.Bits2-1), i.Signed2))
}

func tSwitchH(c *Checker, i *tinstr, pc int32) int32 {
	st := c.tsteps + int(i.StepsAt)
	if st > c.stepGate {
		return c.tOverGate(i, pc, st)
	}
	c.tsteps = st + 1
	b := c.tBlk(pc)
	t := b.Term
	sel := c.ttemps[i.A2]
	tgt, e, ok := c.sealed.CaseNextEdge(b, sel)
	if i.CmdDecision {
		if !ok {
			return c.tRaise(tagEdge(c.condOrStop(b.Ref, t.Src0, "unknown device command %#x", sel), "command", sel))
		}
		c.activeCmd = sel
		c.cmdAccess = c.sealed.CmdAccess(sel)
		c.cmdActive = true
		c.suppressAccess = false
	} else if !ok {
		// A plain decode switch: an unseen selector that statically lands
		// on an already-observed arm (typically the default) is legitimate
		// traffic, not a new command. It carries no trained edge slot:
		// coverage counts it as a direct block hit.
		staticTgt := c.sealed.BlockID(b.Ref.Handler, staticSwitchTargetIdx(t, sel))
		if staticTgt == core.NoBlock {
			return c.tRaise(tagEdge(c.condOrStop(b.Ref, t.Src0, "switch to untraversed arm for selector %#x", sel), "switch", sel))
		}
		tgt, e = staticTgt, core.NoEdge
	}
	if tgt == core.NoBlock {
		return c.tRaise(tagEdge(c.condOrStop(b.Ref, t.Src0, "switch successor outside specification"), "successor", sel))
	}
	return c.tGoto(c.tprog.blockPC[tgt], int32(tgt), e, i.CmdEnd)
}

func tDanglingH(c *Checker, _ *tinstr, _ int32) int32 {
	// Dangling successor: a path the spec cannot follow. The zero BlockRef
	// marks "no block" in the report.
	return c.tRaise(tagEdge(c.condOrStop(ir.BlockRef{}, ir.SourceRef{}, "dangling ES successor"), "successor", 0))
}
