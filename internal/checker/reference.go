package checker

import (
	"encoding/binary"

	"sedspec/internal/core"
	"sedspec/internal/interp"
	"sedspec/internal/ir"
	"sedspec/internal/machine"
)

// Reference is the check engine's oracle: the pre-seal interpreter that
// walks the mutable Spec's maps — block lookups, per-op DSOD decoding,
// NBTD transitions — one I/O round at a time. It shares the parameter
// checks and the shadow-resync surface with Checker (sim) but none of the
// lowering, so the differential tests that pin the two engines' anomaly
// streams, counters and shadow bytes together check the sealed tables,
// the threaded stream, peephole fusion, step batching and loop
// fast-forward against an independent walk.
//
// A Reference takes the same Options as a Checker and honours the check
// configuration (mode, strategies, budget, access control, env, halt);
// it has no recorder, telemetry, coverage, batching or hot-swap. It is
// driven by one goroutine.
type Reference struct {
	sim
	spec       *core.Spec
	entryTemps int
	// temps and flags are the per-depth temp and flag banks, grown on
	// first use of each call depth.
	temps [][]uint64
	flags [][]interp.Flags
	// dmaShadow journals the round's suppressed guest-memory writes
	// (descriptor writebacks), overlaid on later reads in the same round so
	// loops that terminate via writeback terminate in the simulation too.
	dmaShadow map[uint64]byte
	warnings  []Anomaly
	// steps is the current round's walker step count.
	steps int
}

var (
	_ machine.Interposer     = (*Reference)(nil)
	_ machine.PostInterposer = (*Reference)(nil)
)

// NewReference builds the oracle for a specification; initial is the
// device control structure cloned into the shadow device state, as in New.
func NewReference(spec *core.Spec, initial *interp.State, opts ...Option) *Reference {
	r := &Reference{spec: spec, dmaShadow: make(map[uint64]byte)}
	r.config = newConfig(opts)
	r.prog = spec.Program()
	r.shadow = initial.Clone()
	if es := spec.Block(spec.Entry); es != nil {
		r.entryTemps = r.prog.Handlers[es.Ref.Handler].NumTemps
	}
	return r
}

// Warnings returns a copy of the anomalies raised in enhancement mode
// without blocking.
func (r *Reference) Warnings() []Anomaly {
	if len(r.warnings) == 0 {
		return nil
	}
	return append([]Anomaly(nil), r.warnings...)
}

// PreIO implements machine.Interposer: one round of the reference walk,
// settled like Checker.PreIO settles a round.
func (r *Reference) PreIO(_ machine.Device, req *interp.Request) error {
	round := r.stats.rounds.Add(1)
	req.Rewind()
	a := r.simulate(req)
	req.Rewind()
	if a == nil {
		return nil
	}
	if r.settle(a, r.spec.Device, round, 1) {
		if r.haltFn != nil {
			r.haltFn()
		}
		return a
	}
	if len(r.warnings) < MaxPendingWarnings {
		r.warnings = append(r.warnings, *a)
	} else {
		r.stats.warningsDropped.Add(1)
	}
	r.needResync = true
	return nil
}

// simulate walks the ES-CFG for one I/O request against the shadow device
// state, returning the first blocking-relevant anomaly, or nil. Anomalies
// of disabled strategies are not raised; the simulation then behaves like
// the device would (corrupting the shadow arena on unchecked overflows),
// so a later enabled strategy can still catch the consequence — exactly
// how the paper's per-strategy case studies work.
func (r *Reference) simulate(req *interp.Request) *Anomaly {
	r.frames = r.frames[:0]
	r.push(r.spec.Entry, r.entryTemps)
	if len(r.dmaShadow) > 0 {
		// Clearing costs the map's capacity, which one writeback-heavy
		// round can grow; most rounds journal nothing.
		clear(r.dmaShadow)
	}
	r.steps = 0
	a := r.walk(req)
	if a == nil {
		r.stats.stepsSimulated.Add(uint64(r.steps))
	}
	return a
}

func (r *Reference) walk(req *interp.Request) *Anomaly {
	for len(r.frames) > 0 {
		f := &r.frames[len(r.frames)-1]
		es := r.spec.Block(f.block)
		if es == nil {
			// Dangling successor: a path the spec cannot follow. The zero
			// BlockRef marks "no block" in the report.
			return tagEdge(r.condOrStop(ir.BlockRef{}, ir.SourceRef{}, "dangling ES successor"), "successor", 0)
		}

		descended, anomaly := r.execDSOD(f, es.DSOD, es.Ref, req)
		if anomaly != nil {
			return anomaly
		}
		if descended {
			continue
		}
		if r.steps > r.budget {
			return r.condOrStop(es.Ref, ir.SourceRef{}, "simulation budget exceeded (possible emulation loop)")
		}

		r.steps++ // the block transition itself
		done, anomaly := r.transition(f, es)
		if anomaly != nil {
			return anomaly
		}
		if done {
			break
		}
	}
	return nil
}

// push opens a frame for the ES block with the given temp-bank size,
// zeroing its banks.
func (r *Reference) push(block, numTemps int) {
	depth := len(r.frames)
	for len(r.temps) <= depth {
		r.temps = append(r.temps, nil)
		r.flags = append(r.flags, nil)
	}
	if cap(r.temps[depth]) < numTemps {
		r.temps[depth] = make([]uint64, numTemps)
		r.flags[depth] = make([]interp.Flags, numTemps)
	}
	ts := r.temps[depth][:numTemps]
	fs := r.flags[depth][:numTemps]
	clear(ts)
	clear(fs)
	r.frames = append(r.frames, simFrame{block: block, temps: ts, flags: fs})
}

// calleeEntry resolves a handler's entry ES block for direct and indirect
// calls.
func (r *Reference) calleeEntry(handler int) int {
	return r.spec.BlockFor(ir.BlockRef{Handler: handler, Block: 0})
}

// execDSOD runs the block's retained ops from the frame cursor. It
// reports whether the walker descended into a callee.
func (r *Reference) execDSOD(f *simFrame, dsod []core.DSODOp, ref ir.BlockRef, req *interp.Request) (bool, *Anomaly) {
	for i := f.op; i < len(dsod); i++ {
		r.steps++
		d := &dsod[i]
		op := d.Op
		switch op.Code {
		case ir.OpConst:
			f.temps[op.Dst] = op.Imm
			f.flags[op.Dst] = interp.Flags{}
		case ir.OpLoad:
			f.temps[op.Dst] = r.shadow.Int(op.Field)
			f.flags[op.Dst] = interp.Flags{}
		case ir.OpLoadFunc:
			f.temps[op.Dst] = r.shadow.FuncPtr(op.Field)
			f.flags[op.Dst] = interp.Flags{}
		case ir.OpArith:
			v, fl, divZero := interp.ALUExec(op.ALU, f.temps[op.A], f.temps[op.B], op.Width, op.Signed)
			if divZero {
				if r.enabled[StrategyParameter] {
					return false, r.anomaly(StrategyParameter, ref, op.Src0, "division by zero")
				}
				r.stop()
				return false, nil
			}
			f.temps[op.Dst] = v
			f.flags[op.Dst] = fl
		case ir.OpStore:
			if r.spec.Params.Contains(op.Field) {
				if a := r.checkIntStore(ref, op, f.flags); a != nil {
					return false, a
				}
			}
			r.shadow.SetInt(op.Field, f.temps[op.Src])
		case ir.OpStoreFunc:
			r.shadow.SetFuncPtr(op.Field, f.temps[op.Src])
		case ir.OpBufLoad:
			v, a := r.bufAccess(ref, op, d.ParamIndexed, f.temps[op.Idx], 0, 0, false)
			if a != nil {
				return false, a
			}
			f.temps[op.Dst] = v
			f.flags[op.Dst] = interp.Flags{}
		case ir.OpBufStore:
			if _, a := r.bufAccess(ref, op, d.ParamIndexed, f.temps[op.Idx], 0, byte(f.temps[op.Src]), true); a != nil {
				return false, a
			}
		case ir.OpIOToBuf:
			if a := r.checkCopyRange(ref, op, d.ParamIndexed, f.temps); a != nil {
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
			if a := r.checkCopyRange(ref, op, d.ParamIndexed, f.temps); a != nil {
				return false, a
			}
			if a := r.dmaToShadow(ref, op, d.ParamIndexed, f.temps); a != nil {
				return false, a
			}
			if len(r.frames) == 0 {
				return false, nil // simulation stopped mid-copy
			}
		case ir.OpDMAFromBuf:
			// Outbound DMA is guest-visible: bounds-check only, never
			// performed. This asymmetry is the reduction that keeps the
			// checker cheap on read-heavy workloads.
			if a := r.checkCopyRange(ref, op, d.ParamIndexed, f.temps); a != nil {
				return false, a
			}
		case ir.OpDMARead:
			buf := &r.dmaBuf
			n := op.Width.Bytes()
			addr := f.temps[op.A]
			if err := r.env.DMARead(addr, buf[:n]); err != nil {
				if r.enabled[StrategyParameter] {
					return false, r.anomaly(StrategyParameter, ref, op.Src0, "DMA read out of guest memory: %v", err)
				}
				r.stop()
				return false, nil
			}
			// Overlay this round's suppressed writebacks.
			for i := 0; i < n; i++ {
				if v, ok := r.dmaShadow[addr+uint64(i)]; ok {
					buf[i] = v
				}
			}
			f.temps[op.Dst] = binary.LittleEndian.Uint64(buf[:]) & op.Width.Mask()
			f.flags[op.Dst] = interp.Flags{}
		case ir.OpDMAWrite:
			// Suppressed guest write: journal it for this round's reads.
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], f.temps[op.Src])
			for i := 0; i < op.Width.Bytes(); i++ {
				r.dmaShadow[f.temps[op.A]+uint64(i)] = buf[i]
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
			f.temps[op.Dst] = r.env.ReadEnv(ir.EnvKind(op.Imm))
			f.flags[op.Dst] = interp.Flags{}
			r.stats.syncPointsResolved.Add(1)
		case ir.OpCall:
			callee := r.calleeEntry(op.Handler)
			if callee == core.NoBlock {
				continue // opaque: library or unobserved callee
			}
			f.op = i + 1
			r.push(callee, r.prog.Handlers[op.Handler].NumTemps)
			return true, nil
		case ir.OpCallPtr:
			target := r.shadow.FuncPtr(op.Field)
			if r.enabled[StrategyIndirectJump] && !r.spec.LegitimateTarget(op.Field, target) {
				return false, tagEdge(r.anomaly(StrategyIndirectJump, ref, op.Src0,
					"indirect jump via %q to unauthorized target %#x",
					r.prog.Fields[op.Field].Name, target), "indirect", target)
			}
			if target >= uint64(len(r.prog.Handlers)) {
				// Unchecked corrupted pointer: the device would crash.
				r.stop()
				return false, nil
			}
			callee := r.calleeEntry(int(target))
			if callee == core.NoBlock {
				continue // opaque target
			}
			f.op = i + 1
			r.push(callee, r.prog.Handlers[target].NumTemps)
			return true, nil
		}
	}
	return false, nil
}

// transition applies the block's NBTD (or unconditional successor),
// running the conditional-jump check and the command access control.
func (r *Reference) transition(f *simFrame, es *core.ESBlock) (bool, *Anomaly) {
	leavingCmdEnd := es.Kind == ir.KindCmdEnd

	next := core.NoBlock
	switch {
	case es.NBTD == nil:
		switch {
		case es.Halts:
			r.frames = r.frames[:0]
			return true, nil
		case es.Returns:
			r.frames = r.frames[:len(r.frames)-1]
			if leavingCmdEnd {
				r.cmdActive = false
			}
			return len(r.frames) == 0, nil
		default:
			next = es.Next
			if next == core.NoBlock {
				return true, tagEdge(r.condOrStop(es.Ref, ir.SourceRef{}, "successor outside specification"), "successor", 0)
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
			return true, tagEdge(r.condOrStop(es.Ref, t.Src0, "untraversed %s branch", arm), "branch-"+arm, 0)
		}
		next = tgt
	case es.NBTD.Kind == ir.TermSwitch:
		t := es.NBTD.Term
		sel := f.temps[t.A]
		tgt, ok := es.NBTD.CaseNext[sel]
		if es.Kind == ir.KindCmdDecision {
			if !ok {
				return true, tagEdge(r.condOrStop(es.Ref, t.Src0, "unknown device command %#x", sel), "command", sel)
			}
			r.activeCmd = sel
			r.cmdActive = true
			r.suppressAccess = false
		} else if !ok {
			// A plain decode switch: an unseen selector that statically
			// lands on an already-observed arm (typically the default) is
			// legitimate traffic, not a new command.
			staticTgt := r.spec.BlockFor(ir.BlockRef{
				Handler: es.Ref.Handler,
				Block:   staticSwitchTargetIdx(t, sel),
			})
			if staticTgt == core.NoBlock {
				return true, tagEdge(r.condOrStop(es.Ref, t.Src0, "switch to untraversed arm for selector %#x", sel), "switch", sel)
			}
			tgt = staticTgt
		}
		if tgt == core.NoBlock {
			return true, tagEdge(r.condOrStop(es.Ref, t.Src0, "switch successor outside specification"), "successor", sel)
		}
		next = tgt
	}

	if leavingCmdEnd {
		r.cmdActive = false
	}

	// Command access control: under an active command, only blocks in the
	// command's access vector (or globally accessible blocks) may run.
	nextES := r.spec.Block(next)
	if nextES != nil && r.accessControl && r.cmdActive && !r.suppressAccess &&
		r.enabled[StrategyConditionalJump] &&
		!r.spec.CmdTable.Accessible(r.activeCmd, next) {
		return true, tagEdge(r.anomaly(StrategyConditionalJump, nextES.Ref, ir.SourceRef{},
			"block not accessible under command %#x", r.activeCmd), "access", r.activeCmd)
	}

	f.block = next
	f.op = 0
	return false, nil
}
