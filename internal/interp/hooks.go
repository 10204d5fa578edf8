package interp

import "sedspec/internal/ir"

// Env provides the machine services a device program may invoke: guest
// memory for DMA, the interrupt line, and an emulation-work sink that
// advances virtual time.
type Env interface {
	// DMARead copies guest memory at addr into buf.
	DMARead(addr uint64, buf []byte) error
	// DMAWrite copies buf into guest memory at addr.
	DMAWrite(addr uint64, buf []byte) error
	// RaiseIRQ asserts the device's interrupt line.
	RaiseIRQ()
	// LowerIRQ deasserts the device's interrupt line.
	LowerIRQ()
	// Work models n bytes of emulation work (medium latency, checksums).
	Work(n int)
	// ReadEnv returns an environment value (link status, media presence).
	// The value must be stable within one I/O round so that the
	// ES-Checker's sync points and the device observe the same value.
	ReadEnv(kind ir.EnvKind) uint64
}

// Tracer receives processor-trace events, mirroring what Intel PT emits for
// the traced process. Addresses are the synthetic block/op addresses, so a
// trace module can apply the paper's address-range and ring filters.
type Tracer interface {
	// TraceStart fires when tracing enables at I/O entry (IPT PGE).
	TraceStart(addr uint64)
	// TraceEnd fires when tracing disables at I/O exit (IPT PGD).
	TraceEnd(addr uint64)
	// TraceBranch records a conditional branch outcome (IPT TNT bit). from
	// is the branch instruction's address.
	TraceBranch(from uint64, taken bool)
	// TraceIndirect records an indirect transfer target (IPT TIP packet):
	// switch dispatch, indirect call through a function pointer, return.
	TraceIndirect(from, target uint64)
}

// FieldVal is one watched device-state parameter's value in an observation.
type FieldVal struct {
	Field int    `json:"field"`
	Value uint64 `json:"value"`
}

// ObsEvent is one observation-point record. The analysis phase places
// observation points at control-flow-relevant locations; the interpreter
// emits one event per executed block, with watched field values captured at
// conditional/indirect jumps and at typed blocks, forming the device-state
// change log that ES-CFG construction consumes.
type ObsEvent struct {
	Seq   int          `json:"seq"`
	Block ir.BlockRef  `json:"block"`
	Kind  ir.BlockKind `json:"kind"`
	Addr  uint64       `json:"addr"`
	Depth int          `json:"depth"`

	Term     ir.TermKind `json:"term"`
	Taken    bool        `json:"taken,omitempty"`
	Target   uint64      `json:"target,omitempty"`
	CmdValue uint64      `json:"cmd,omitempty"`
	// IndirectField is the function-pointer field for indirect-call events,
	// -1 otherwise.
	IndirectField int `json:"indirectField"`

	Fields []FieldVal `json:"fields,omitempty"`
	Flags  Flags      `json:"flags"`
}

// Observer receives observation events during instrumented runs. An
// event's Fields is valid until Observe returns: the interpreter reuses
// it for the next event, so an observer that keeps it must copy it.
type Observer interface {
	Observe(ev ObsEvent)
}

// nopEnv is used when no environment is supplied (pure register devices).
type nopEnv struct{}

func (nopEnv) DMARead(uint64, []byte) error  { return nil }
func (nopEnv) DMAWrite(uint64, []byte) error { return nil }
func (nopEnv) RaiseIRQ()                     {}
func (nopEnv) LowerIRQ()                     {}
func (nopEnv) Work(int)                      {}
func (nopEnv) ReadEnv(ir.EnvKind) uint64     { return 1 }

// NopEnv returns an Env that ignores all services.
func NopEnv() Env { return nopEnv{} }
