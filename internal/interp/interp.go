package interp

import (
	"fmt"

	"sedspec/internal/ir"
)

// Default execution limits.
const (
	DefaultStepBudget = 4 << 20
	DefaultMaxDepth   = 64
	// maxDMACopy bounds a single DMA copy, like a real DMA engine's
	// transfer-length register.
	maxDMACopy = 1 << 24
)

// Interp executes a device program. It is not safe for concurrent use; a
// machine serializes I/O dispatch per device, as QEMU's big lock does.
type Interp struct {
	prog  *ir.Program
	state *State
	env   Env

	tracer   Tracer
	observer Observer
	watch    []int
	// fieldBuf holds the watched fields of the event being observed,
	// reused from one event to the next.
	fieldBuf []FieldVal

	stepBudget int
	maxDepth   int

	// frames and temp buffers are reused across dispatches.
	frames []frame
	temps  [][]uint64

	flags Flags
	seq   int
}

type frame struct {
	handler int
	block   int
	op      int
	temps   []uint64
	// retFrom is the op address the call was made from, for return TIPs.
	retFrom uint64
}

// New returns an interpreter for the program and state. env may be nil for
// devices that use no machine services.
func New(prog *ir.Program, state *State, env Env) *Interp {
	if env == nil {
		env = NopEnv()
	}
	return &Interp{
		prog:       prog,
		state:      state,
		env:        env,
		stepBudget: DefaultStepBudget,
		maxDepth:   DefaultMaxDepth,
	}
}

// State returns the interpreter's control structure.
func (in *Interp) State() *State { return in.state }

// Program returns the executed program.
func (in *Interp) Program() *ir.Program { return in.prog }

// SetTracer installs (or removes, with nil) a processor-trace sink.
func (in *Interp) SetTracer(t Tracer) { in.tracer = t }

// SetObserver installs (or removes, with nil) an observation sink.
func (in *Interp) SetObserver(o Observer) { in.observer = o }

// SetWatch sets the field indices whose values observation events capture
// (the device-state parameters chosen by the CFG analyzer).
func (in *Interp) SetWatch(fields []int) {
	in.watch = append(in.watch[:0], fields...)
	if cap(in.fieldBuf) < len(in.watch) {
		in.fieldBuf = make([]FieldVal, 0, len(in.watch))
	}
}

// SetStepBudget bounds the ops executed per dispatch; exceeding it faults
// with FaultStepBudget (the emulation-infinite-loop case).
func (in *Interp) SetStepBudget(n int) {
	if n > 0 {
		in.stepBudget = n
	}
}

// StepBudget returns the current per-dispatch step bound, so callers that
// tighten it temporarily (the fuzzer) can restore it afterwards.
func (in *Interp) StepBudget() int { return in.stepBudget }

// Dispatch runs the program's dispatch handler for one I/O interaction.
func (in *Interp) Dispatch(req *Request) *Result {
	return in.Run(in.prog.DispatchHandler, req)
}

// Run executes an arbitrary handler for a request; used by tests and by
// machine-internal completions (DMA callbacks).
func (in *Interp) Run(handler int, req *Request) *Result {
	res := &Result{}
	in.seq = 0
	in.flags = Flags{}
	in.frames = in.frames[:0]
	in.push(handler, 0)

	entry := &in.prog.Handlers[handler].Blocks[0]
	if in.tracer != nil {
		in.tracer.TraceStart(entry.Addr)
	}
	lastAddr := entry.Addr

	for len(in.frames) > 0 {
		f := &in.frames[len(in.frames)-1]
		h := &in.prog.Handlers[f.handler]
		b := &h.Blocks[f.block]

		fault := in.execBlock(f, h, b, req, res)
		if fault != nil {
			res.Fault = fault
			break
		}
		lastAddr = b.TermAddr()
		if res.Steps > in.stepBudget {
			res.Fault = &Fault{
				Kind:   FaultStepBudget,
				Block:  ir.BlockRef{Handler: f.handler, Block: f.block},
				Src:    b.Term.Src0,
				Detail: fmt.Sprintf("exceeded %d steps", in.stepBudget),
			}
			break
		}
	}

	if in.tracer != nil {
		in.tracer.TraceEnd(lastAddr)
	}
	res.Output = req.out
	return res
}

func (in *Interp) push(handler, block int) {
	h := &in.prog.Handlers[handler]
	depth := len(in.frames)
	for len(in.temps) <= depth {
		in.temps = append(in.temps, nil)
	}
	if cap(in.temps[depth]) < h.NumTemps {
		in.temps[depth] = make([]uint64, h.NumTemps)
	}
	t := in.temps[depth][:h.NumTemps]
	for i := range t {
		t[i] = 0
	}
	in.frames = append(in.frames, frame{handler: handler, block: block, temps: t})
}

// execBlock runs one block's ops and terminator, advancing the frame stack.
// It returns a fault or nil.
func (in *Interp) execBlock(f *frame, h *ir.Handler, b *ir.Block, req *Request, res *Result) *Fault {
	if f.op == 0 {
		res.Blocks++
	}
	ref := ir.BlockRef{Handler: f.handler, Block: f.block}

	for i := f.op; i < len(b.Ops); i++ {
		op := &b.Ops[i]
		res.Steps++
		switch op.Code {
		case ir.OpConst:
			f.temps[op.Dst] = op.Imm
		case ir.OpLoad:
			f.temps[op.Dst] = in.state.Int(op.Field)
		case ir.OpStore:
			in.state.SetInt(op.Field, f.temps[op.Src])
		case ir.OpLoadFunc:
			f.temps[op.Dst] = in.state.FuncPtr(op.Field)
		case ir.OpStoreFunc:
			in.state.SetFuncPtr(op.Field, f.temps[op.Src])
		case ir.OpArith:
			v, fl, divZero := ALUExec(op.ALU, f.temps[op.A], f.temps[op.B], op.Width, op.Signed)
			if divZero {
				return &Fault{Kind: FaultDivZero, Block: ref, Src: op.Src0}
			}
			f.temps[op.Dst] = v
			in.flags = fl
		case ir.OpBufLoad:
			v, fault := in.bufLoad(op, f.temps[op.Idx], ref, res)
			if fault != nil {
				return fault
			}
			f.temps[op.Dst] = v
		case ir.OpBufStore:
			if fault := in.bufStore(op, f.temps[op.Idx], byte(f.temps[op.Src]), ref, res); fault != nil {
				return fault
			}
		case ir.OpIOIn:
			f.temps[op.Dst] = req.Consume(op.Width.Bytes())
		case ir.OpIOOut:
			req.emit(f.temps[op.Src], op.Width.Bytes())
		case ir.OpIOAddr:
			f.temps[op.Dst] = req.Addr
		case ir.OpIOLen:
			f.temps[op.Dst] = uint64(req.Remaining())
		case ir.OpIOIsWrite:
			if req.Write {
				f.temps[op.Dst] = 1
			} else {
				f.temps[op.Dst] = 0
			}
		case ir.OpDMARead:
			var buf [8]byte
			n := op.Width.Bytes()
			if err := in.env.DMARead(f.temps[op.A], buf[:n]); err != nil {
				return &Fault{Kind: FaultDMA, Block: ref, Src: op.Src0, Detail: err.Error()}
			}
			f.temps[op.Dst] = readLE(buf[:n], op.Width)
		case ir.OpDMAWrite:
			var buf [8]byte
			n := op.Width.Bytes()
			writeLE(buf[:n], op.Width, f.temps[op.Src])
			if err := in.env.DMAWrite(f.temps[op.A], buf[:n]); err != nil {
				return &Fault{Kind: FaultDMA, Block: ref, Src: op.Src0, Detail: err.Error()}
			}
		case ir.OpDMAToBuf:
			if fault := in.dmaToBuf(op, f, ref, res); fault != nil {
				return fault
			}
		case ir.OpDMAFromBuf:
			if fault := in.dmaFromBuf(op, f, ref, res); fault != nil {
				return fault
			}
		case ir.OpIOToBuf:
			if fault := in.ioToBuf(op, f, req, ref, res); fault != nil {
				return fault
			}
		case ir.OpIRQRaise:
			in.env.RaiseIRQ()
		case ir.OpIRQLower:
			in.env.LowerIRQ()
		case ir.OpEnvRead:
			f.temps[op.Dst] = in.env.ReadEnv(ir.EnvKind(op.Imm))
		case ir.OpWork:
			n := int(f.temps[op.Src])
			if n > 0 {
				in.env.Work(n)
				res.WorkBytes += n
			}
		case ir.OpCall:
			if fault := in.call(op.Handler, f, b, i, ref, op); fault != nil {
				return fault
			}
			return nil // resume callee; caller continues at op i+1 on return
		case ir.OpCallPtr:
			target := in.state.FuncPtr(op.Field)
			if in.tracer != nil {
				targetAddr := uint64(0)
				if target < uint64(len(in.prog.Handlers)) {
					targetAddr = in.prog.Handlers[target].Blocks[0].Addr
				}
				in.tracer.TraceIndirect(b.OpAddr(i), targetAddr)
			}
			if in.observer != nil {
				ev := in.newEvent(ref, b, 0)
				ev.IndirectField = op.Field
				if target < uint64(len(in.prog.Handlers)) {
					ev.Target = in.prog.Handlers[target].Blocks[0].Addr
				}
				ev.Fields = in.captureFields(ev.Fields)
				in.observer.Observe(ev)
			}
			if target >= uint64(len(in.prog.Handlers)) {
				return &Fault{
					Kind: FaultBadCallTarget, Block: ref, Src: op.Src0,
					Detail: fmt.Sprintf("function pointer %q = 0x%x", in.prog.Fields[op.Field].Name, target),
				}
			}
			if fault := in.call(int(target), f, b, i, ref, op); fault != nil {
				return fault
			}
			return nil
		default:
			return &Fault{Kind: FaultArenaEscape, Block: ref, Src: op.Src0,
				Detail: fmt.Sprintf("unknown opcode %v", op.Code)}
		}
	}

	res.Steps++
	return in.execTerm(f, h, b, ref)
}

// call pushes a callee frame, recording where to resume in the caller.
func (in *Interp) call(handler int, f *frame, b *ir.Block, opIdx int, ref ir.BlockRef, op *ir.Op) *Fault {
	if len(in.frames) >= in.maxDepth {
		return &Fault{Kind: FaultStackOverflow, Block: ref, Src: op.Src0}
	}
	f.op = opIdx + 1
	f.retFrom = b.OpAddr(opIdx + 1)
	in.push(handler, 0)
	return nil
}

// execTerm resolves the block terminator, emits trace/observation events,
// and updates the frame stack.
func (in *Interp) execTerm(f *frame, h *ir.Handler, b *ir.Block, ref ir.BlockRef) *Fault {
	t := &b.Term
	next := -1
	var ev ObsEvent
	observing := in.observer != nil
	if observing {
		ev = in.newEvent(ref, b, t.Kind)
	}

	switch t.Kind {
	case ir.TermJump:
		next = t.Target
	case ir.TermBranch:
		taken := t.Rel.Eval(f.temps[t.A], f.temps[t.B], t.Width, t.Signed)
		if taken {
			next = t.Taken
		} else {
			next = t.NotTaken
		}
		if in.tracer != nil {
			in.tracer.TraceBranch(b.TermAddr(), taken)
		}
		if observing {
			ev.Taken = taken
			ev.Target = h.Blocks[next].Addr
			ev.Fields = in.captureFields(ev.Fields)
		}
	case ir.TermSwitch:
		sel := f.temps[t.A]
		next = t.Default
		for _, c := range t.Cases {
			if c.Value == sel {
				next = c.Target
				break
			}
		}
		if in.tracer != nil {
			in.tracer.TraceIndirect(b.TermAddr(), h.Blocks[next].Addr)
		}
		if observing {
			ev.CmdValue = sel
			ev.Target = h.Blocks[next].Addr
			ev.Fields = in.captureFields(ev.Fields)
		}
	case ir.TermReturn, ir.TermHalt:
		// Pop the frame. Halt clears the whole stack (round over).
		if t.Kind == ir.TermHalt {
			in.frames = in.frames[:0]
		} else {
			in.frames = in.frames[:len(in.frames)-1]
		}
		if in.tracer != nil {
			target := uint64(0)
			if len(in.frames) > 0 {
				target = in.frames[len(in.frames)-1].retFrom
			}
			in.tracer.TraceIndirect(b.TermAddr(), target)
		}
		if observing {
			if b.Kind == ir.KindCmdEnd || b.Kind == ir.KindExit || b.Kind == ir.KindEntry {
				ev.Fields = in.captureFields(ev.Fields)
			}
			in.observer.Observe(ev)
		}
		return nil
	}

	if observing {
		if ev.Fields == nil && b.Kind != ir.KindNormal {
			ev.Fields = in.captureFields(ev.Fields)
		}
		in.observer.Observe(ev)
	}
	f.block = next
	f.op = 0
	return nil
}

func (in *Interp) newEvent(ref ir.BlockRef, b *ir.Block, term ir.TermKind) ObsEvent {
	in.seq++
	return ObsEvent{
		Seq:           in.seq,
		Block:         ref,
		Kind:          b.Kind,
		Addr:          b.Addr,
		Depth:         len(in.frames),
		Term:          term,
		IndirectField: -1,
		Flags:         in.flags,
	}
}

func (in *Interp) captureFields(dst []FieldVal) []FieldVal {
	if len(in.watch) == 0 {
		return dst
	}
	if dst == nil {
		dst = in.fieldBuf[:0]
	}
	for _, fi := range in.watch {
		dst = append(dst, FieldVal{Field: fi, Value: in.state.FieldValue(fi)})
	}
	return dst
}

// arenaByteOff resolves a buffer access to an arena offset.
// inField: within the buffer; corrupt: outside the buffer but inside the
// arena (the access proceeds, silently clobbering a neighbour); escape:
// outside the arena entirely.
func (in *Interp) arenaByteOff(op *ir.Op, rawIdx uint64, delta int64) (off int64, inField, corrupt, escape bool) {
	fld := &in.prog.Fields[op.Field]
	var idx int64
	if op.Signed {
		idx = op.Width.SignExtend(rawIdx)
	} else {
		idx = int64(rawIdx & op.Width.Mask())
	}
	idx += delta
	off = int64(fld.Offset) + idx
	switch {
	case idx >= 0 && idx < int64(fld.Size):
		return off, true, false, false
	case off >= 0 && off < int64(in.prog.ArenaSize):
		return off, false, true, false
	default:
		return off, false, false, true
	}
}

func (in *Interp) bufLoad(op *ir.Op, rawIdx uint64, ref ir.BlockRef, res *Result) (uint64, *Fault) {
	off, _, corrupt, escape := in.arenaByteOff(op, rawIdx, 0)
	if escape {
		return 0, &Fault{Kind: FaultArenaEscape, Block: ref, Src: op.Src0,
			Detail: fmt.Sprintf("read %s[%d]", in.prog.Fields[op.Field].Name, int64(off)-int64(in.prog.Fields[op.Field].Offset))}
	}
	if corrupt {
		res.Corruptions++
	}
	return uint64(in.state.arena[off]), nil
}

func (in *Interp) bufStore(op *ir.Op, rawIdx uint64, v byte, ref ir.BlockRef, res *Result) *Fault {
	off, _, corrupt, escape := in.arenaByteOff(op, rawIdx, 0)
	if escape {
		return &Fault{Kind: FaultArenaEscape, Block: ref, Src: op.Src0,
			Detail: fmt.Sprintf("write %s[%d]", in.prog.Fields[op.Field].Name, int64(off)-int64(in.prog.Fields[op.Field].Offset))}
	}
	if corrupt {
		res.Corruptions++
	}
	in.state.arena[off] = v
	return nil
}

// bulkSpan reports whether the access [idx, idx+n) lies entirely within
// the buffer field, enabling the bulk fast path (one memcpy, like the C
// code's memcpy when no overflow occurs).
func (in *Interp) bulkSpan(op *ir.Op, rawIdx uint64, n int) (int, bool) {
	fld := &in.prog.Fields[op.Field]
	var idx int64
	if op.Signed {
		idx = op.Width.SignExtend(rawIdx)
	} else {
		idx = int64(rawIdx & op.Width.Mask())
	}
	if idx >= 0 && n >= 0 && idx+int64(n) <= int64(fld.Size) {
		return fld.Offset + int(idx), true
	}
	return 0, false
}

func (in *Interp) dmaToBuf(op *ir.Op, f *frame, ref ir.BlockRef, res *Result) *Fault {
	n := int(f.temps[op.B] & 0xFFFF_FFFF)
	if n > maxDMACopy {
		n = maxDMACopy
	}
	addr := f.temps[op.A]
	if off, ok := in.bulkSpan(op, f.temps[op.Idx], n); ok {
		if err := in.env.DMARead(addr, in.state.arena[off:off+n]); err != nil {
			return &Fault{Kind: FaultDMA, Block: ref, Src: op.Src0, Detail: err.Error()}
		}
		return nil
	}
	var chunk [256]byte
	for copied := 0; copied < n; {
		c := len(chunk)
		if rem := n - copied; rem < c {
			c = rem
		}
		if err := in.env.DMARead(addr+uint64(copied), chunk[:c]); err != nil {
			return &Fault{Kind: FaultDMA, Block: ref, Src: op.Src0, Detail: err.Error()}
		}
		for i := 0; i < c; i++ {
			off, _, corrupt, escape := in.arenaByteOff(op, f.temps[op.Idx], int64(copied+i))
			if escape {
				return &Fault{Kind: FaultArenaEscape, Block: ref, Src: op.Src0,
					Detail: fmt.Sprintf("dma write past %s", in.prog.Fields[op.Field].Name)}
			}
			if corrupt {
				res.Corruptions++
			}
			in.state.arena[off] = chunk[i]
		}
		copied += c
	}
	return nil
}

func (in *Interp) ioToBuf(op *ir.Op, f *frame, req *Request, ref ir.BlockRef, res *Result) *Fault {
	n := int(f.temps[op.B] & 0xFFFF_FFFF)
	if n > maxDMACopy {
		n = maxDMACopy
	}
	if off, ok := in.bulkSpan(op, f.temps[op.Idx], n); ok {
		copied := req.ConsumeInto(in.state.arena[off : off+n])
		for i := copied; i < n; i++ {
			in.state.arena[off+i] = 0
		}
		return nil
	}
	for i := 0; i < n; i++ {
		v := byte(req.Consume(1))
		off, _, corrupt, escape := in.arenaByteOff(op, f.temps[op.Idx], int64(i))
		if escape {
			return &Fault{Kind: FaultArenaEscape, Block: ref, Src: op.Src0,
				Detail: fmt.Sprintf("payload copy past %s", in.prog.Fields[op.Field].Name)}
		}
		if corrupt {
			res.Corruptions++
		}
		in.state.arena[off] = v
	}
	return nil
}

func (in *Interp) dmaFromBuf(op *ir.Op, f *frame, ref ir.BlockRef, res *Result) *Fault {
	n := int(f.temps[op.B] & 0xFFFF_FFFF)
	if n > maxDMACopy {
		n = maxDMACopy
	}
	addr := f.temps[op.A]
	if off, ok := in.bulkSpan(op, f.temps[op.Idx], n); ok {
		if err := in.env.DMAWrite(addr, in.state.arena[off:off+n]); err != nil {
			return &Fault{Kind: FaultDMA, Block: ref, Src: op.Src0, Detail: err.Error()}
		}
		return nil
	}
	var chunk [256]byte
	for copied := 0; copied < n; {
		c := len(chunk)
		if rem := n - copied; rem < c {
			c = rem
		}
		for i := 0; i < c; i++ {
			off, _, corrupt, escape := in.arenaByteOff(op, f.temps[op.Idx], int64(copied+i))
			if escape {
				return &Fault{Kind: FaultArenaEscape, Block: ref, Src: op.Src0,
					Detail: fmt.Sprintf("dma read past %s", in.prog.Fields[op.Field].Name)}
			}
			if corrupt {
				res.Corruptions++
			}
			chunk[i] = in.state.arena[off]
		}
		if err := in.env.DMAWrite(addr+uint64(copied), chunk[:c]); err != nil {
			return &Fault{Kind: FaultDMA, Block: ref, Src: op.Src0, Detail: err.Error()}
		}
		copied += c
	}
	return nil
}
