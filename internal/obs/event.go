// Package obs is the observability layer of the runtime-protection
// stack: an always-on flight recorder (a fixed-size per-session ring of
// compact binary check events) plus a metrics registry (monotonic
// counters and log-scale histograms keyed by device × strategy ×
// verdict, atomic on the hot path, snapshot/merge on read).
//
// The package is a leaf: it knows nothing of the checker or the machine.
// The checker feeds it one Event per checked I/O; the codes stored in an
// Event (exit kind, strategy, verdict) are small integers whose meaning
// is fixed here so that a recorded ring is self-describing.
//
// Concurrency contract: a Recorder has exactly one writer — the
// goroutine driving its enforcement session. A clean round is counted
// into a plain pending cell; Publish folds the pending cells into the
// atomic metric bank, so cross-goroutine readers may snapshot metrics at
// any time (Registry.Snapshot, Recorder.Snapshot) and see every round
// the writer has published. The ring is NOT synchronized: it is read by
// its own writer (the anomaly path freezes it into an AnomalyContext) or
// after the session has quiesced (DumpTrace between experiments). This
// keeps the steady-state record cost to one plain increment and one
// 56-byte slot store.
package obs

import "fmt"

// ExitKind classifies the VM exit that delivered a checked request:
// port-mapped vs memory-mapped I/O, read vs write. KindDMA is reserved
// for recorders tracing DMA interfaces; the per-I/O check path only
// emits PIO/MMIO kinds, since DMA happens inside a round.
type ExitKind uint8

const (
	// KindUnknown marks an event whose request origin was not stamped.
	KindUnknown ExitKind = 0
	// KindPIORead is a port-mapped read exit.
	KindPIORead ExitKind = 2
	// KindPIOWrite is a port-mapped write exit.
	KindPIOWrite ExitKind = 3
	// KindMMIORead is a memory-mapped read exit.
	KindMMIORead ExitKind = 4
	// KindMMIOWrite is a memory-mapped write exit.
	KindMMIOWrite ExitKind = 5
	// KindDMA is a DMA interface event.
	KindDMA ExitKind = 6
	// KindBatch is a coalesced summary of a batched delivery's clean
	// rounds: Round is the first round covered, Len the number of rounds,
	// Steps their summed step count, and Tick the batch's virtual time
	// (the clock is frozen while a batch checks). Anomalous rounds are
	// never coalesced — they always record individually, after the
	// summary of the clean prefix that preceded them.
	KindBatch ExitKind = 7
)

// KindOf maps an I/O space code (1 = PIO, 2 = MMIO, matching
// interp.Space) and direction to the exit kind.
func KindOf(space uint8, write bool) ExitKind {
	k := ExitKind(space << 1)
	if write {
		k++
	}
	if k < KindPIORead || k > KindMMIOWrite {
		return KindUnknown
	}
	return k
}

func (k ExitKind) String() string {
	switch k {
	case KindPIORead:
		return "pio-rd"
	case KindPIOWrite:
		return "pio-wr"
	case KindMMIORead:
		return "mmio-rd"
	case KindMMIOWrite:
		return "mmio-wr"
	case KindDMA:
		return "dma"
	case KindBatch:
		return "batch"
	default:
		return fmt.Sprintf("exit(%d)", uint8(k))
	}
}

// Verdict is the outcome of one checked I/O.
type Verdict uint8

const (
	// VerdictOK means the simulation matched the specification.
	VerdictOK Verdict = iota
	// VerdictWarned means an anomaly was raised without blocking
	// (enhancement mode, non-parameter strategies).
	VerdictWarned
	// VerdictBlocked means the I/O was blocked before the device ran.
	VerdictBlocked

	// NumVerdicts sizes per-verdict counter arrays.
	NumVerdicts = 3
)

func (v Verdict) String() string {
	switch v {
	case VerdictOK:
		return "ok"
	case VerdictWarned:
		return "warned"
	case VerdictBlocked:
		return "blocked"
	default:
		return fmt.Sprintf("verdict(%d)", uint8(v))
	}
}

// Strategy codes mirror the checker's check strategies (0 = none, then
// parameter, indirect-jump, conditional-jump). The names are duplicated
// here so a recorded ring renders without importing the checker.
const (
	// StrategyNone marks an event with no anomaly strategy (OK rounds).
	StrategyNone = 0
	// NumStrategies sizes per-strategy counter arrays.
	NumStrategies = 4
)

var strategyNames = [NumStrategies]string{"none", "parameter-check", "indirect-jump-check", "conditional-jump-check"}

// StrategyName returns the human name for a strategy code.
func StrategyName(code uint8) string {
	if int(code) < len(strategyNames) {
		return strategyNames[code]
	}
	return fmt.Sprintf("strategy(%d)", code)
}

// Event is one checked I/O interaction, compact and pointer-free so a
// ring of them is a single flat allocation and a record is a plain
// 56-byte store. All codes are resolvable without the checker package.
type Event struct {
	// Seq is the recorder's monotonic event number (1-based); gaps in a
	// dumped ring reveal overwritten history.
	Seq uint64
	// Tick is the virtual timestamp in simclock ticks (one tick = one
	// microsecond of virtual time); zero when no clock is wired.
	Tick int64
	// Round is the checker's round counter when the event was recorded.
	Round uint64
	// Addr is the request's bus address.
	Addr uint64
	// Steps is the sealed-walker step count for the round.
	Steps uint32
	// Session is the guest-session ID stamped by the machine layer.
	Session uint32
	// Handler and Block name the ES-CFG block tied to the event: the
	// anomalous block for warned/blocked rounds, the entry block for OK
	// rounds.
	Handler uint16
	Block   uint16
	// Len is the request payload length in bytes.
	Len uint16
	// SpecGen is the spec-version generation that checked the round: 1
	// for a spec that was never swapped, incremented by every hot-swap.
	// Events recorded across a swap boundary disambiguate which spec
	// version produced which verdict.
	SpecGen uint16
	// Kind is the VM-exit kind that delivered the request.
	Kind ExitKind
	// Strategy is the anomaly's strategy code (StrategyNone for OK).
	Strategy uint8
	// Verdict is the round's outcome.
	Verdict Verdict
}
