package checker

import (
	"sedspec/internal/interp"
	"sedspec/internal/machine"
	"sedspec/internal/obs"
)

// Verdict is the per-request outcome of a batched check; it aliases the
// machine package's type so the checker satisfies machine.BatchInterposer.
type Verdict = machine.Verdict

var _ machine.BatchInterposer = (*Checker)(nil)

// PreIOBatch checks a whole burst of requests — a descriptor-ring sweep,
// an EHCI schedule walk, a SCSI CDB push — in one call, amortizing the
// per-round fixed costs across the batch: one frame-arena reset, one
// DMA-journal epoch and one Stats publication per batch instead of per
// round, and one ring event for the batch's clean rounds. Per-op anomaly
// step totals, per-I/O verdicts and the session's publication schedule
// are exactly those of the equivalent PreIO sequence.
//
// The batch simulates ahead of the device: request k+1 is checked
// before the device has consumed request k. That is sound because the
// shadow's DMA writeback journal stays live across the batch (a clean
// round's simulated writebacks equal the ones the device will perform),
// and it short-circuits the moment a round stops tracking the device —
// on the first anomaly (blocked or warned) and on the first round that
// set needResync (a warning or a disabled-strategy stop round). The
// unchecked tail is left with Checked=false for the dispatcher to
// re-present after the device catches up.
//
// Like PreIO, a batch is bracketed by one RCU epoch marker, so a
// hot-swap takes effect at a batch boundary.
func (c *Checker) PreIOBatch(reqs []*interp.Request) []Verdict {
	if cap(c.verdicts) < len(reqs) {
		c.verdicts = make([]Verdict, len(reqs))
	}
	vs := c.verdicts[:len(reqs)]
	for i := range vs {
		vs[i] = Verdict{}
	}
	if len(reqs) == 0 {
		return vs
	}
	c.epoch.Add(1)
	if v := c.shared.cur.Load(); v != c.ver {
		c.adopt(v)
	}
	// One arena reset and one DMA-journal epoch for the whole batch. The
	// engine skips its per-round resets while c.batching is set; the
	// journal accumulates each clean round's writebacks so later rounds
	// observe the guest memory the device will have produced.
	c.frames = c.frames[:0]
	c.tempArena = c.tempArena[:0]
	c.flagArena = c.flagArena[:0]
	c.dmaLog = c.dmaLog[:0]
	c.batching = true
	c.batchSteps = 0
	round0 := c.stats.rounds.Load()
	checked := 0
	pub := uint64(0)
	// Clean rounds do not materialize individual ring events: each is
	// counted into the recorder's histograms one by one, and the batch
	// appends one KindBatch summary covering the clean prefix —
	// before any anomaly event, so the ring stays in round order. The
	// clock is frozen during check-ahead, so one timestamp read serves
	// the whole batch.
	var tick int64
	if c.rec != nil && c.clock != nil {
		tick = c.clock.Now().Microseconds()
	}
	okRounds, okSteps := uint64(0), uint64(0)
	emitSummary := func() {
		if okRounds == 0 {
			return
		}
		ev := c.rec.Append(tick)
		ev.Round = round0 + 1
		ev.Addr = reqs[0].Addr
		ev.Steps = uint32(okSteps)
		ev.Handler = uint16(c.entryRef.Handler)
		ev.Block = uint16(c.entryRef.Block)
		ev.Len = uint16(okRounds)
		ev.Kind = obs.KindBatch
		ev.SpecGen = uint16(c.specGen)
		ev.Strategy = obs.StrategyNone
		ev.Verdict = obs.VerdictOK
		okRounds, okSteps = 0, 0
	}
	// flushCounters publishes the batch's deferred counters: rounds up
	// to and including round k, and the accumulated step total. Called
	// before anomaly accounting so live readers never observe a warning
	// or block ahead of its round.
	flushCounters := func(k int) {
		if n := uint64(k) - pub; n > 0 {
			c.stats.rounds.Add(n)
			pub = uint64(k)
		}
		if c.batchSteps != 0 {
			c.stats.stepsSimulated.Add(c.batchSteps)
			c.batchSteps = 0
		}
	}
	for k, req := range reqs {
		round := round0 + uint64(k) + 1
		req.Rewind()
		anomaly := c.simulateThreaded(req)
		req.Rewind()
		checked = k + 1
		if anomaly == nil {
			// Clean round: the verdict slot is pre-zeroed, only Checked
			// needs writing.
			if c.rec != nil {
				c.rec.Count(uint32(c.roundSteps), obs.StrategyNone, obs.VerdictOK)
				okRounds++
				okSteps += uint64(c.roundSteps)
			}
			c.endRound()
			vs[k].Checked = true
			if c.needResync {
				break
			}
			continue
		}
		flushCounters(checked)
		if c.rec != nil {
			emitSummary()
		}
		err := c.finishRound(req, round, anomaly)
		c.endRound()
		vs[k] = Verdict{Checked: true, Blocked: err != nil, Err: err}
		if err != nil && c.haltFn != nil {
			// finishRound defers the halt in batch mode; the dispatcher
			// runs it after delivering the clean prefix to the device.
			vs[k].Halt = c.haltFn
		}
		break
	}
	flushCounters(checked)
	if c.rec != nil {
		emitSummary()
	}
	c.batching = false
	c.epoch.Add(1)
	return vs
}
