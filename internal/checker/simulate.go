package checker

import (
	"encoding/binary"

	"sedspec/internal/core"
	"sedspec/internal/interp"
	"sedspec/internal/ir"
)

// The simulation has two engines over one set of parameter-check helpers:
//
//   - simulateThreaded (threaded.go) runs the compiled instruction stream
//     of the dense SealedSpec — the production hot path, allocation-free
//     in steady state;
//   - simulateRef (below) runs against the mutable Spec's maps — the
//     pre-seal baseline, retained behind WithReferenceSimulation as the
//     differential-testing oracle.
//
// Each engine owns a loop specialized to its op layout (execDSOD over the
// Spec's DSODOp slices, one handler per op over the threaded stream) but
// both delegate every check to the shared parameter-check helpers below,
// and the differential tests in the repository root pin the two engines
// to byte-identical anomaly streams.

// simulate walks the ES-CFG for one I/O request against the shadow device
// state, returning the first blocking-relevant anomaly, or nil. Anomalies
// of disabled strategies are not raised; the simulation then behaves like
// the device would (corrupting the shadow arena on unchecked overflows),
// so a later enabled strategy can still catch the consequence — exactly
// how the paper's per-strategy case studies work.
func (c *Checker) simulate(req *interp.Request) *Anomaly {
	if c.tprog != nil {
		return c.simulateThreaded(req)
	}
	return c.simulateRef(req)
}

// simulateRef is the reference walker over the unsealed Spec.
func (c *Checker) simulateRef(req *interp.Request) *Anomaly {
	c.frames = c.frames[:0]
	c.push(c.spec.Entry, c.entryTemps)
	steps := 0
	// The DMA shadow map is the reference engine's writeback journal; in
	// a batch it persists as the batch's guest-memory overlay.
	if !c.batching && len(c.dmaShadow) > 0 {
		clear(c.dmaShadow)
	}
	a := c.walkRef(req, &steps)
	// Mirrors simulateThreaded: the step count reaches the round's event
	// regardless of verdict, the aggregate only on clean rounds.
	c.roundSteps = steps
	if a == nil {
		if c.batching {
			c.batchSteps += uint64(steps)
		} else {
			c.stats.stepsSimulated.Add(uint64(steps))
		}
	}
	return a
}

func (c *Checker) walkRef(req *interp.Request, stepsp *int) *Anomaly {
	steps := *stepsp
	defer func() { *stepsp = steps }()
	for len(c.frames) > 0 {
		f := &c.frames[len(c.frames)-1]
		es := c.spec.Block(f.block)
		if es == nil {
			// Dangling successor: a path the spec cannot follow. The zero
			// BlockRef marks "no block" in the report.
			return tagEdge(c.condOrStop(ir.BlockRef{}, ir.SourceRef{}, "dangling ES successor"), "successor", 0)
		}

		descended, anomaly := c.execDSOD(f, es.DSOD, es.Ref, req, &steps)
		if anomaly != nil {
			return anomaly
		}
		if descended {
			continue
		}
		if steps > c.budget {
			return c.condOrStop(es.Ref, ir.SourceRef{}, "simulation budget exceeded (possible emulation loop)")
		}

		steps++ // the block transition itself
		done, anomaly := c.transitionRef(f, es)
		if anomaly != nil {
			return anomaly
		}
		if done {
			break
		}
	}
	return nil
}

// push opens a frame for the ES block with the given temp-bank size in
// the reference engine: the pre-seal per-depth slice-of-slices and
// element-loop zeroing. The threaded engine carves its banks out of flat
// arenas instead (pushT in threaded.go).
func (c *Checker) push(block, numTemps int) {
	depth := len(c.frames)
	for len(c.temps) <= depth {
		c.temps = append(c.temps, nil)
		c.flags = append(c.flags, nil)
	}
	if cap(c.temps[depth]) < numTemps {
		c.temps[depth] = make([]uint64, numTemps)
		c.flags[depth] = make([]interp.Flags, numTemps)
	}
	ts := c.temps[depth][:numTemps]
	fs := c.flags[depth][:numTemps]
	// Pre-seal zeroing, element by element, kept for the baseline.
	for i := range ts {
		ts[i] = 0
		fs[i] = interp.Flags{}
	}
	c.frames = append(c.frames, simFrame{block: block, temps: ts, flags: fs})
}

// calleeEntry resolves a handler's entry ES block for direct and indirect
// calls.
func (c *Checker) calleeEntry(handler int) int {
	return c.spec.BlockFor(ir.BlockRef{Handler: handler, Block: 0})
}

// paramField reports whether the field is a selected device-state
// parameter.
func (c *Checker) paramField(field int) bool {
	if c.sealed != nil {
		return c.sealed.ParamField(field)
	}
	return c.spec.Params.Contains(field)
}

// condOrStop raises a conditional-jump anomaly if the strategy is enabled;
// otherwise it silently stops the simulation (the spec cannot follow the
// path) and schedules a shadow resync.
func (c *Checker) condOrStop(ref ir.BlockRef, src ir.SourceRef, format string, args ...any) *Anomaly {
	if c.enabled[StrategyConditionalJump] {
		return c.anomaly(StrategyConditionalJump, ref, src, format, args...)
	}
	c.frames = c.frames[:0]
	c.needResync = true
	return nil
}

// execDSOD runs the block's retained ops from the frame cursor in the
// reference engine (the threaded engine runs one handler per op instead).
// It reports whether the walker descended into a callee.
func (c *Checker) execDSOD(f *simFrame, dsod []core.DSODOp, ref ir.BlockRef, req *interp.Request, steps *int) (bool, *Anomaly) {
	for i := f.op; i < len(dsod); i++ {
		*steps++
		d := &dsod[i]
		op := d.Op
		switch op.Code {
		case ir.OpConst:
			f.temps[op.Dst] = op.Imm
			f.flags[op.Dst] = interp.Flags{}
		case ir.OpLoad:
			f.temps[op.Dst] = c.shadow.Int(op.Field)
			f.flags[op.Dst] = interp.Flags{}
		case ir.OpLoadFunc:
			f.temps[op.Dst] = c.shadow.FuncPtr(op.Field)
			f.flags[op.Dst] = interp.Flags{}
		case ir.OpArith:
			v, fl, divZero := interp.ALUExec(op.ALU, f.temps[op.A], f.temps[op.B], op.Width, op.Signed)
			if divZero {
				if c.enabled[StrategyParameter] {
					return false, c.anomaly(StrategyParameter, ref, op.Src0, "division by zero")
				}
				c.frames = c.frames[:0]
				c.needResync = true
				return false, nil
			}
			f.temps[op.Dst] = v
			f.flags[op.Dst] = fl
		case ir.OpStore:
			if a := c.checkIntStore(ref, op, f.flags); a != nil {
				return false, a
			}
			c.shadow.SetInt(op.Field, f.temps[op.Src])
		case ir.OpStoreFunc:
			c.shadow.SetFuncPtr(op.Field, f.temps[op.Src])
		case ir.OpBufLoad:
			v, a := c.bufAccess(ref, op, d.ParamIndexed, f.temps[op.Idx], 0, 0, false)
			if a != nil {
				return false, a
			}
			f.temps[op.Dst] = v
			f.flags[op.Dst] = interp.Flags{}
		case ir.OpBufStore:
			if _, a := c.bufAccess(ref, op, d.ParamIndexed, f.temps[op.Idx], 0, byte(f.temps[op.Src]), true); a != nil {
				return false, a
			}
		case ir.OpIOToBuf:
			if a := c.checkCopyRange(ref, op, d.ParamIndexed, f.temps); a != nil {
				return false, a
			}
			req.Skip(int(f.temps[op.B] & 0xFFFF_FFFF))
		case ir.OpDMAToBuf:
			// Inbound DMA is performed against the shadow buffer (a
			// read-only peek at guest memory before the device runs):
			// command blocks and descriptors arriving by DMA feed
			// control-flow decisions, so the shadow must hold the real
			// content — and unchecked overflows must corrupt the shadow
			// the way they corrupt the device.
			if a := c.checkCopyRange(ref, op, d.ParamIndexed, f.temps); a != nil {
				return false, a
			}
			if a := c.dmaToShadow(ref, op, d.ParamIndexed, f.temps); a != nil {
				return false, a
			}
			if len(c.frames) == 0 {
				return false, nil // simulation stopped mid-copy
			}
		case ir.OpDMAFromBuf:
			// Outbound DMA is guest-visible: bounds-check only, never
			// performed. This asymmetry is the reduction that keeps the
			// checker cheap on read-heavy workloads.
			if a := c.checkCopyRange(ref, op, d.ParamIndexed, f.temps); a != nil {
				return false, a
			}
		case ir.OpDMARead:
			// Pre-seal implementation, preserved for faithful overhead
			// accounting: the stack buffer escapes through the Env
			// interface (one heap allocation per DMA-read op) and the
			// writeback overlay probes the journal unconditionally. The
			// threaded twin uses the checker's scratch buffer and skips the
			// overlay when the journal is empty.
			var buf [8]byte
			n := op.Width.Bytes()
			addr := f.temps[op.A]
			if err := c.env.DMARead(addr, buf[:n]); err != nil {
				if c.enabled[StrategyParameter] {
					return false, c.anomaly(StrategyParameter, ref, op.Src0, "DMA read out of guest memory: %v", err)
				}
				c.frames = c.frames[:0]
				c.needResync = true
				return false, nil
			}
			// Overlay this round's suppressed writebacks.
			for i := 0; i < n; i++ {
				if v, ok := c.dmaShadow[addr+uint64(i)]; ok {
					buf[i] = v
				}
			}
			f.temps[op.Dst] = binary.LittleEndian.Uint64(buf[:])
			if n < 8 {
				f.temps[op.Dst] &= op.Width.Mask()
			}
			f.flags[op.Dst] = interp.Flags{}
		case ir.OpDMAWrite:
			// Suppressed guest write: journal it for this round's reads.
			if c.dmaShadow == nil {
				c.dmaShadow = make(map[uint64]byte)
			}
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], f.temps[op.Src])
			for i := 0; i < op.Width.Bytes(); i++ {
				c.dmaShadow[f.temps[op.A]+uint64(i)] = buf[i]
			}
		case ir.OpIOIn:
			f.temps[op.Dst] = req.Consume(op.Width.Bytes())
			f.flags[op.Dst] = interp.Flags{}
		case ir.OpIOAddr:
			f.temps[op.Dst] = req.Addr
			f.flags[op.Dst] = interp.Flags{}
		case ir.OpIOLen:
			f.temps[op.Dst] = uint64(req.Remaining())
			f.flags[op.Dst] = interp.Flags{}
		case ir.OpIOIsWrite:
			if req.Write {
				f.temps[op.Dst] = 1
			} else {
				f.temps[op.Dst] = 0
			}
			f.flags[op.Dst] = interp.Flags{}
		case ir.OpEnvRead:
			// Sync point: synchronize the non-derivable value with the
			// device environment (paper §V-D).
			f.temps[op.Dst] = c.env.ReadEnv(ir.EnvKind(op.Imm))
			f.flags[op.Dst] = interp.Flags{}
			c.stats.syncPointsResolved.Add(1)
		case ir.OpCall:
			callee := c.calleeEntry(op.Handler)
			if callee == core.NoBlock {
				continue // opaque: library or unobserved callee
			}
			f.op = i + 1
			c.push(callee, c.prog.Handlers[op.Handler].NumTemps)
			return true, nil
		case ir.OpCallPtr:
			target := c.shadow.FuncPtr(op.Field)
			if c.enabled[StrategyIndirectJump] && !c.spec.LegitimateTarget(op.Field, target) {
				return false, tagEdge(c.anomaly(StrategyIndirectJump, ref, op.Src0,
					"indirect jump via %q to unauthorized target %#x",
					c.prog.Fields[op.Field].Name, target), "indirect", target)
			}
			if target >= uint64(len(c.prog.Handlers)) {
				// Unchecked corrupted pointer: the device would crash.
				c.frames = c.frames[:0]
				c.needResync = true
				return false, nil
			}
			callee := c.calleeEntry(int(target))
			if callee == core.NoBlock {
				continue // opaque target
			}
			f.op = i + 1
			c.push(callee, c.prog.Handlers[target].NumTemps)
			return true, nil
		}
	}
	return false, nil
}

// checkIntStore applies the integer-overflow half of the parameter check:
// storing a value whose defining arithmetic overflowed for the parameter's
// signedness, or that exceeds the field's representable range, is an
// anomaly (paper §VI-A, UBSan-style type metadata plus flag bits).
func (c *Checker) checkIntStore(ref ir.BlockRef, op *ir.Op, flags []interp.Flags) *Anomaly {
	if !c.enabled[StrategyParameter] || !c.paramField(op.Field) {
		return nil
	}
	fld := &c.prog.Fields[op.Field]
	if flags[op.Src].OverflowFor(fld.Signed) {
		kind := "unsigned"
		if fld.Signed {
			kind = "signed"
		}
		return c.anomaly(StrategyParameter, ref, op.Src0,
			"%s integer overflow storing into %q", kind, fld.Name)
	}
	return nil
}

// bufAccess applies the buffer-overflow half of the parameter check —
// only when the access is indexed by a device-state parameter, per the
// paper — and otherwise mirrors the device's C semantics on the shadow
// arena, so downstream strategies see the corruption.
func (c *Checker) bufAccess(ref ir.BlockRef, op *ir.Op, paramIndexed bool, rawIdx uint64, delta int64, v byte, write bool) (uint64, *Anomaly) {
	fld := &c.prog.Fields[op.Field]
	var idx int64
	if op.Signed {
		idx = op.Width.SignExtend(rawIdx)
	} else {
		idx = int64(rawIdx & op.Width.Mask())
	}
	idx += delta
	off := int64(fld.Offset) + idx

	inField := idx >= 0 && idx < int64(fld.Size)
	if !inField {
		if c.enabled[StrategyParameter] && paramIndexed {
			return 0, c.anomaly(StrategyParameter, ref, op.Src0,
				"buffer overflow: %s[%d] outside [0,%d)", fld.Name, idx, fld.Size)
		}
		if off < 0 || off >= int64(c.prog.ArenaSize) {
			// The device would fault past the arena; stop simulating.
			c.frames = c.frames[:0]
			c.needResync = true
			return 0, nil
		}
	}
	arena := c.shadow.Bytes()
	if write {
		arena[off] = v
		return 0, nil
	}
	return uint64(arena[off]), nil
}

// dmaToShadow copies guest memory into the shadow buffer with the
// device's C semantics (neighbour corruption inside the arena, stop at the
// arena edge).
func (c *Checker) dmaToShadow(ref ir.BlockRef, op *ir.Op, paramIndexed bool, temps []uint64) *Anomaly {
	n := int(temps[op.B] & 0xFFFF_FFFF)
	addr := temps[op.A]

	// Fast path: the whole span is inside the buffer — one bulk read into
	// the shadow, mirroring the device's memcpy.
	fld := &c.prog.Fields[op.Field]
	var sidx int64
	if op.Signed {
		sidx = op.Width.SignExtend(temps[op.Idx])
	} else {
		sidx = int64(temps[op.Idx] & op.Width.Mask())
	}
	if sidx >= 0 && n >= 0 && sidx+int64(n) <= int64(fld.Size) {
		off := fld.Offset + int(sidx)
		if err := c.env.DMARead(addr, c.shadow.Bytes()[off:off+n]); err != nil {
			if c.enabled[StrategyParameter] && paramIndexed {
				return c.anomaly(StrategyParameter, ref, op.Src0, "DMA source out of guest memory: %v", err)
			}
			c.frames = c.frames[:0]
			c.needResync = true
		}
		return nil
	}

	var chunk [256]byte
	for copied := 0; copied < n; {
		cl := len(chunk)
		if rem := n - copied; rem < cl {
			cl = rem
		}
		if err := c.env.DMARead(addr+uint64(copied), chunk[:cl]); err != nil {
			if c.enabled[StrategyParameter] && paramIndexed {
				return c.anomaly(StrategyParameter, ref, op.Src0, "DMA source out of guest memory: %v", err)
			}
			c.frames = c.frames[:0]
			c.needResync = true
			return nil
		}
		for i := 0; i < cl; i++ {
			if _, a := c.bufAccess(ref, op, paramIndexed, temps[op.Idx], int64(copied+i), chunk[i], true); a != nil {
				return a
			}
			if len(c.frames) == 0 {
				return nil // stopped: shadow copy escaped the arena
			}
		}
		copied += cl
	}
	return nil
}

// checkCopyRange bounds-checks a bulk copy's buffer range (either
// direction) against the buffer's size — again only when the range derives
// from device-state parameters.
func (c *Checker) checkCopyRange(ref ir.BlockRef, op *ir.Op, paramIndexed bool, temps []uint64) *Anomaly {
	if !c.enabled[StrategyParameter] || !paramIndexed {
		return nil
	}
	fld := &c.prog.Fields[op.Field]
	n := int64(temps[op.B] & 0xFFFF_FFFF)
	var idx int64
	if op.Signed {
		idx = op.Width.SignExtend(temps[op.Idx])
	} else {
		idx = int64(temps[op.Idx] & op.Width.Mask())
	}
	if idx < 0 || n < 0 || idx+n > int64(fld.Size) {
		return c.anomaly(StrategyParameter, ref, op.Src0,
			"out-of-bounds read: %s[%d..%d) outside [0,%d)", fld.Name, idx, idx+n, fld.Size)
	}
	return nil
}

// transitionRef applies the block's NBTD (or unconditional successor) in
// the reference engine, running the conditional-jump check and the command
// access control.
func (c *Checker) transitionRef(f *simFrame, es *core.ESBlock) (bool, *Anomaly) {
	leavingCmdEnd := es.Kind == ir.KindCmdEnd

	next := core.NoBlock
	switch {
	case es.NBTD == nil:
		switch {
		case es.Halts:
			c.frames = c.frames[:0]
			return true, nil
		case es.Returns:
			c.frames = c.frames[:len(c.frames)-1]
			if leavingCmdEnd {
				c.cmdActive = false
			}
			return len(c.frames) == 0, nil
		default:
			next = es.Next
			if next == core.NoBlock {
				return true, tagEdge(c.condOrStop(es.Ref, ir.SourceRef{}, "successor outside specification"), "successor", 0)
			}
		}
	case es.NBTD.Kind == ir.TermBranch:
		t := es.NBTD.Term
		taken := t.Rel.Eval(f.temps[t.A], f.temps[t.B], t.Width, t.Signed)
		seen, tgt := es.NBTD.NotTakenSeen, es.NBTD.NotTakenNext
		if taken {
			seen, tgt = es.NBTD.TakenSeen, es.NBTD.TakenNext
		}
		if !seen || tgt == core.NoBlock {
			arm := "not-taken"
			if taken {
				arm = "taken"
			}
			return true, tagEdge(c.condOrStop(es.Ref, t.Src0, "untraversed %s branch", arm), "branch-"+arm, 0)
		}
		next = tgt
	case es.NBTD.Kind == ir.TermSwitch:
		t := es.NBTD.Term
		sel := f.temps[t.A]
		tgt, ok := es.NBTD.CaseNext[sel]
		if es.Kind == ir.KindCmdDecision {
			if !ok {
				return true, tagEdge(c.condOrStop(es.Ref, t.Src0, "unknown device command %#x", sel), "command", sel)
			}
			c.activeCmd = sel
			c.cmdActive = true
			c.suppressAccess = false
		} else if !ok {
			// A plain decode switch: an unseen selector that statically
			// lands on an already-observed arm (typically the default) is
			// legitimate traffic, not a new command.
			staticTgt := c.spec.BlockFor(ir.BlockRef{
				Handler: es.Ref.Handler,
				Block:   staticSwitchTargetIdx(t, sel),
			})
			if staticTgt == core.NoBlock {
				return true, tagEdge(c.condOrStop(es.Ref, t.Src0, "switch to untraversed arm for selector %#x", sel), "switch", sel)
			}
			tgt = staticTgt
		}
		if tgt == core.NoBlock {
			return true, tagEdge(c.condOrStop(es.Ref, t.Src0, "switch successor outside specification"), "successor", sel)
		}
		next = tgt
	}

	if leavingCmdEnd {
		c.cmdActive = false
	}

	// Command access control: under an active command, only blocks in the
	// command's access vector (or globally accessible blocks) may run.
	nextES := c.spec.Block(next)
	if nextES != nil && c.accessControl && c.cmdActive && !c.suppressAccess &&
		c.enabled[StrategyConditionalJump] &&
		!c.spec.CmdTable.Accessible(c.activeCmd, true, next) {
		return true, tagEdge(c.anomaly(StrategyConditionalJump, nextES.Ref, ir.SourceRef{},
			"block not accessible under command %#x", c.activeCmd), "access", c.activeCmd)
	}

	f.block = next
	f.op = 0
	return false, nil
}

func staticSwitchTargetIdx(t *ir.Term, v uint64) int {
	for _, cse := range t.Cases {
		if cse.Value == v {
			return cse.Target
		}
	}
	return t.Default
}
