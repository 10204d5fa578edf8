package checker

import (
	"fmt"

	"sedspec/internal/interp"
	"sedspec/internal/ir"
	"sedspec/internal/machine"
)

// The simulation has one production engine and one oracle over one set of
// parameter-check helpers:
//
//   - Checker (threaded.go) runs the compiled instruction stream of the
//     dense SealedSpec — the production hot path, allocation-free in
//     steady state;
//   - Reference (reference.go) walks the mutable Spec's maps — the
//     pre-seal interpreter, kept as the differential-testing oracle.
//
// Each owns a loop specialized to its op layout, and both delegate every
// check to the helpers on sim below, the state they share. The
// differential tests in the repository root pin the two to byte-identical
// anomaly streams, counters and shadow states.

// sim is the simulation state both engines embed: the check
// configuration, the device program, the shadow device state with its
// command tracking, the frame stack a helper clears to stop a round, and
// the counters. Its methods are the parameter-check helpers and the
// shadow-resync surface the engines share.
type sim struct {
	config
	prog   *ir.Program
	shadow *interp.State

	cmdActive bool
	activeCmd uint64
	// suppressAccess disables access-vector checks after a shadow resync
	// until the next command-decision block restores tracking.
	suppressAccess bool
	needResync     bool

	frames []simFrame
	// dmaBuf is the word-sized scratch buffer for DMA-read ops. It lives
	// here (not on the stack) because slices passed through the
	// interp.Env interface escape, and a stack buffer would cost one heap
	// allocation per DMA-read op.
	dmaBuf [8]byte
	stats  statCounters
}

type simFrame struct {
	block int
	op    int
	temps []uint64
	flags []interp.Flags
	// off is the frame's start offset in the threaded engine's arenas; the
	// pop trims the arenas back to it. Unused by the reference engine.
	off int
}

// Mode returns the working mode.
func (s *sim) Mode() Mode { return s.mode }

// Stats returns a copy of the counters.
func (s *sim) Stats() Stats { return s.stats.snapshot() }

// Shadow exposes the shadow device state for tests and diagnostics.
func (s *sim) Shadow() *interp.State { return s.shadow }

// NeedsResync reports whether the last check round desynchronized the
// shadow from the device — a warning or an unobserved path — i.e.
// whether PostIO would resynchronize at the next dispatch. Machine-less
// replay harnesses use it to emulate the dispatcher's resync point.
func (s *sim) NeedsResync() bool { return s.needResync }

// ResyncShadow re-initializes the shadow device state from the real
// control structure and drops command tracking. Rollback recovery calls
// it after restoring a machine snapshot, since the restored device state
// no longer matches the simulation's.
func (s *sim) ResyncShadow(real *interp.State) {
	copy(s.shadow.Bytes(), real.Bytes())
	s.cmdActive = false
	s.suppressAccess = true
	s.needResync = false
	s.stats.resyncs.Add(1)
}

// PostIO implements machine.PostInterposer: after warning rounds the
// shadow state is resynchronized from the real device control structure,
// since the simulation could not follow the unobserved path.
func (s *sim) PostIO(dev machine.Device, _ *interp.Request, _ *interp.Result) {
	if s.needResync {
		s.ResyncShadow(dev.State())
	}
}

// settle stamps a round's anomaly with its device, round and generation
// and counts it, and reports whether it blocks in the current mode (in
// protection mode every anomaly does; in enhancement mode only
// parameter-check anomalies).
func (s *sim) settle(a *Anomaly, device string, round, gen uint64) (blocks bool) {
	a.Device, a.Round, a.SpecGen = device, round, gen
	switch a.Strategy {
	case StrategyParameter:
		s.stats.paramAnomalies.Add(1)
	case StrategyIndirectJump:
		s.stats.indirectAnomalies.Add(1)
	case StrategyConditionalJump:
		s.stats.condAnomalies.Add(1)
	}
	if a.EdgeKind == "" {
		// Untagged sites default by strategy: parameter-check anomalies
		// (overflow, bounds, DMA) concern an op, not a transition.
		switch a.Strategy {
		case StrategyParameter:
			a.EdgeKind = "parameter"
		case StrategyIndirectJump:
			a.EdgeKind = "indirect"
		default:
			a.EdgeKind = "control"
		}
	}
	if s.mode == ModeProtection || a.Strategy == StrategyParameter {
		s.stats.blocked.Add(1)
		return true
	}
	s.stats.warnings.Add(1)
	return false
}

func (s *sim) anomaly(st Strategy, ref ir.BlockRef, src ir.SourceRef, format string, args ...any) *Anomaly {
	return &Anomaly{
		Strategy: st,
		Block:    ref,
		Src:      src,
		Detail:   fmt.Sprintf(format, args...),
		Session:  -1,
	}
}

// stop ends the round silently — the spec cannot follow the path, or the
// device would fault — and schedules a shadow resync.
func (s *sim) stop() {
	s.frames = s.frames[:0]
	s.needResync = true
}

// condOrStop raises a conditional-jump anomaly if the strategy is enabled;
// otherwise it silently stops the simulation (the spec cannot follow the
// path) and schedules a shadow resync.
func (s *sim) condOrStop(ref ir.BlockRef, src ir.SourceRef, format string, args ...any) *Anomaly {
	if s.enabled[StrategyConditionalJump] {
		return s.anomaly(StrategyConditionalJump, ref, src, format, args...)
	}
	s.stop()
	return nil
}

// checkIntStore applies the integer-overflow half of the parameter check
// to a store into a selected device-state parameter (the caller resolves
// the field's selection): storing a value whose defining arithmetic
// overflowed for the parameter's signedness is an anomaly (paper §VI-A,
// UBSan-style type metadata plus flag bits).
func (s *sim) checkIntStore(ref ir.BlockRef, op *ir.Op, flags []interp.Flags) *Anomaly {
	if !s.enabled[StrategyParameter] {
		return nil
	}
	fld := &s.prog.Fields[op.Field]
	if flags[op.Src].OverflowFor(fld.Signed) {
		kind := "unsigned"
		if fld.Signed {
			kind = "signed"
		}
		return s.anomaly(StrategyParameter, ref, op.Src0,
			"%s integer overflow storing into %q", kind, fld.Name)
	}
	return nil
}

// bufAccess applies the buffer-overflow half of the parameter check —
// only when the access is indexed by a device-state parameter, per the
// paper — and otherwise mirrors the device's C semantics on the shadow
// arena, so downstream strategies see the corruption.
func (s *sim) bufAccess(ref ir.BlockRef, op *ir.Op, paramIndexed bool, rawIdx uint64, delta int64, v byte, write bool) (uint64, *Anomaly) {
	fld := &s.prog.Fields[op.Field]
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
		if s.enabled[StrategyParameter] && paramIndexed {
			return 0, s.anomaly(StrategyParameter, ref, op.Src0,
				"buffer overflow: %s[%d] outside [0,%d)", fld.Name, idx, fld.Size)
		}
		if off < 0 || off >= int64(s.prog.ArenaSize) {
			// The device would fault past the arena; stop simulating.
			s.stop()
			return 0, nil
		}
	}
	arena := s.shadow.Bytes()
	if write {
		arena[off] = v
		return 0, nil
	}
	return uint64(arena[off]), nil
}

// dmaToShadow copies guest memory into the shadow buffer with the
// device's C semantics (neighbour corruption inside the arena, stop at the
// arena edge).
func (s *sim) dmaToShadow(ref ir.BlockRef, op *ir.Op, paramIndexed bool, temps []uint64) *Anomaly {
	n := int(temps[op.B] & 0xFFFF_FFFF)
	addr := temps[op.A]

	// Fast path: the whole span is inside the buffer — one bulk read into
	// the shadow, mirroring the device's memcpy.
	fld := &s.prog.Fields[op.Field]
	var sidx int64
	if op.Signed {
		sidx = op.Width.SignExtend(temps[op.Idx])
	} else {
		sidx = int64(temps[op.Idx] & op.Width.Mask())
	}
	if sidx >= 0 && n >= 0 && sidx+int64(n) <= int64(fld.Size) {
		off := fld.Offset + int(sidx)
		if err := s.env.DMARead(addr, s.shadow.Bytes()[off:off+n]); err != nil {
			if s.enabled[StrategyParameter] && paramIndexed {
				return s.anomaly(StrategyParameter, ref, op.Src0, "DMA source out of guest memory: %v", err)
			}
			s.stop()
		}
		return nil
	}

	var chunk [256]byte
	for copied := 0; copied < n; {
		cl := len(chunk)
		if rem := n - copied; rem < cl {
			cl = rem
		}
		if err := s.env.DMARead(addr+uint64(copied), chunk[:cl]); err != nil {
			if s.enabled[StrategyParameter] && paramIndexed {
				return s.anomaly(StrategyParameter, ref, op.Src0, "DMA source out of guest memory: %v", err)
			}
			s.stop()
			return nil
		}
		for i := 0; i < cl; i++ {
			if _, a := s.bufAccess(ref, op, paramIndexed, temps[op.Idx], int64(copied+i), chunk[i], true); a != nil {
				return a
			}
			if len(s.frames) == 0 {
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
func (s *sim) checkCopyRange(ref ir.BlockRef, op *ir.Op, paramIndexed bool, temps []uint64) *Anomaly {
	if !s.enabled[StrategyParameter] || !paramIndexed {
		return nil
	}
	fld := &s.prog.Fields[op.Field]
	n := int64(temps[op.B] & 0xFFFF_FFFF)
	var idx int64
	if op.Signed {
		idx = op.Width.SignExtend(temps[op.Idx])
	} else {
		idx = int64(temps[op.Idx] & op.Width.Mask())
	}
	if idx < 0 || n < 0 || idx+n > int64(fld.Size) {
		return s.anomaly(StrategyParameter, ref, op.Src0,
			"out-of-bounds read: %s[%d..%d) outside [0,%d)", fld.Name, idx, idx+n, fld.Size)
	}
	return nil
}

// staticSwitchTargetIdx resolves a decode switch's selector against the
// program's own case table, for selectors training never saw.
func staticSwitchTargetIdx(t *ir.Term, v uint64) int {
	for _, cse := range t.Cases {
		if cse.Value == v {
			return cse.Target
		}
	}
	return t.Default
}
