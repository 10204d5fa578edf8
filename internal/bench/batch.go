package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"sedspec/internal/checker"
	"sedspec/internal/interp"
	"sedspec/internal/machine"
	"sedspec/internal/workload"
)

// DefaultBatchSize is the delivery window used when a benchmark does not
// choose its own: large enough that the per-delivery fixed costs (epoch
// bracket, arena and journal reset, counter and summary publication) are
// fully amortized — the per-round delta is flat from ~16 up — and sized
// like a full ring sweep on the ring/doorbell devices.
const DefaultBatchSize = 64

// BatchBenchRow is one device's batched-delivery comparison: the same
// captured benign stream replayed through two sessions of one shared
// threaded engine, one driven per round (PreIO) and one in ring-sweep
// batches (PreIOBatch), so the row isolates exactly what batching
// amortizes — epoch brackets, arena resets, journal epochs, counter and
// metrics publication.
type BatchBenchRow struct {
	Device             string  `json:"device"`
	Requests           int     `json:"requests"`
	Iters              int     `json:"iters"`
	BatchSize          int     `json:"batch_size"`
	PerRoundNsPerOp    float64 `json:"per_round_ns_per_op"`
	BatchedNsPerOp     float64 `json:"batched_ns_per_op"`
	SpeedupPct         float64 `json:"speedup_pct"` // (per_round-batched)/per_round
	BatchedAllocsPerOp float64 `json:"batched_allocs_per_op"`
}

// Both delivery harnesses below mirror the machine dispatcher's
// interposer protocol, minus what batching does not change: the device
// model, the virtual clock, and the halt checks are identical per-op in
// DispatchDirect and DispatchBatch, so they are excluded from both
// sides; the interposer-facing work — interface dispatch, the per-round
// PostInterposer discovery, verdict handling — is exactly what the two
// paths do differently, so it is reproduced faithfully.

// stepRound replays captured request j through the per-round delivery
// protocol: DispatchDirect's interposer walk, with its interface PreIO
// call and its per-round PostInterposer type assertion. The caller
// tracks the stream position and resynchronizes at each wrap, so the
// timed loop carries no modulo of its own.
func (r *CheckerReplay) stepRound(ips []machine.Interposer, dev machine.Device, j int) error {
	req := r.Reqs[j]
	for _, ip := range ips {
		if err := ip.PreIO(dev, req); err != nil {
			return fmt.Errorf("bench: %s per-round replay round %d: %v", r.Target.Name, j, err)
		}
	}
	for _, ip := range ips {
		if pi, ok := ip.(machine.PostInterposer); ok {
			pi.PostIO(dev, req, nil)
		}
	}
	return nil
}

// timeChunkRound replays n rounds through the per-round protocol from
// stream position j, returning elapsed wall time, the heap allocation
// count delta, and the next stream position.
func (r *CheckerReplay) timeChunkRound(chk *checker.Checker, ips []machine.Interposer, dev machine.Device, j, n int) (time.Duration, uint64, int, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if j == 0 {
			chk.ResyncShadow(r.start)
		}
		if err := r.stepRound(ips, dev, j); err != nil {
			return 0, 0, 0, err
		}
		if j++; j == len(r.Reqs) {
			j = 0
		}
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	return elapsed, after.Mallocs - before.Mallocs, j, nil
}

// stepBatch replays one batch window starting at stream position j
// through the batched delivery protocol: DispatchBatch's hoisted
// BatchInterposer and PostInterposer, one PreIOBatch per window, the
// verdict prefix scan, and one post-I/O point per delivered window.
// The caller resynchronizes at each wrap of the captured stream like
// StepStream; windows never straddle the wrap, so every batch sees the
// control state its requests were recorded against. It returns the
// number of rounds consumed.
func (r *CheckerReplay) stepBatch(bi machine.BatchInterposer, pi machine.PostInterposer, dev machine.Device, reqs []*interp.Request, j, size int) (int, error) {
	end := j + size
	if end > len(reqs) {
		end = len(reqs)
	}
	vs := bi.PreIOBatch(reqs[j:end])
	for k := range vs {
		if !vs[k].Checked || vs[k].Err != nil {
			return 0, fmt.Errorf("bench: %s batched replay round %d: checked=%v err=%v",
				r.Target.Name, j+k, vs[k].Checked, vs[k].Err)
		}
	}
	// DispatchBatch's protocol: one post-I/O resync point per delivered
	// prefix, after its last round.
	pi.PostIO(dev, reqs[end-1], nil)
	return end - j, nil
}

// timeChunkBatch replays whole batches from stream position j until at
// least n rounds have been consumed, returning elapsed wall time, the
// heap allocation count delta, the rounds actually consumed, and the
// next stream position.
func (r *CheckerReplay) timeChunkBatch(bi machine.BatchInterposer, pi machine.PostInterposer, dev machine.Device, chk *checker.Checker, reqs []*interp.Request, j, n, size int) (time.Duration, uint64, int, int, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	consumed := 0
	for consumed < n {
		if j == 0 {
			chk.ResyncShadow(r.start)
		}
		c, err := r.stepBatch(bi, pi, dev, reqs, j, size)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		consumed += c
		if j += c; j == len(reqs) {
			j = 0
		}
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	return elapsed, after.Mallocs - before.Mallocs, consumed, j, nil
}

// BatchOverhead measures per-round against batched delivery on one
// device. Both sides are sessions of the same shared threaded engine —
// the production enforcement configuration — so epoch brackets, spec
// adoption, and per-session counter banks cost both sides alike and the
// delta is purely the per-round fixed costs the batch path amortizes.
// Timing interleaves chunks of both sides. The batched side must
// run allocation-free at steady state; any nonzero minimum chunk rate
// fails the measurement rather than reporting a float.
func BatchOverhead(t *workload.Target, ops, iters, batchSize int) (*BatchBenchRow, error) {
	r, err := NewCheckerReplay(t, ops)
	if err != nil {
		return nil, err
	}
	if batchSize < 1 {
		batchSize = 1
	}
	sh := checker.NewShared(r.Spec, checker.WithEnv(r.att))
	chkRound := sh.NewSession(r.start)
	chkBatch := sh.NewSession(r.start)
	batchReqs := r.CloneReqs()
	ips := []machine.Interposer{chkRound}
	var bi machine.BatchInterposer = chkBatch
	var pi machine.PostInterposer = chkBatch
	dev := r.att.Dev()

	// Warm both sessions over one full cycle, growing arenas and the
	// verdict buffer to steady state.
	chkRound.ResyncShadow(r.start)
	for i := 0; i < len(r.Reqs); i++ {
		if err := r.stepRound(ips, dev, i); err != nil {
			return nil, err
		}
	}
	chkBatch.ResyncShadow(r.start)
	for j := 0; j < len(batchReqs); {
		c, err := r.stepBatch(bi, pi, dev, batchReqs, j, batchSize)
		if err != nil {
			return nil, err
		}
		j += c
	}

	if iters < 1 {
		iters = 1
	}
	chunk := iters / checkerBenchChunks
	if chunk < 1 {
		chunk = 1
	}
	// Per-op cost is estimated as the minimum over interleaved chunks on
	// each side: scheduler preemption and cache pollution only ever make
	// a chunk slower, so the fastest chunk is the robust estimate of the
	// uncontended cost, and interleaving exposes both sides to the same
	// conditions. Sums would let one noisy chunk swing the comparison.
	roundNs, batchNs := -1.0, -1.0
	minRate := -1.0
	jR, jB := 0, 0
	runtime.GC()
	for done := 0; done < iters; {
		n := chunk
		if iters-done < n {
			n = iters - done
		}
		a, _, nextR, err := r.timeChunkRound(chkRound, ips, dev, jR, n)
		if err != nil {
			return nil, err
		}
		jR = nextR
		b, m, consumed, nextB, err := r.timeChunkBatch(bi, pi, dev, chkBatch, batchReqs, jB, n, batchSize)
		if err != nil {
			return nil, err
		}
		jB = nextB
		if ns := float64(a.Nanoseconds()) / float64(n); roundNs < 0 || ns < roundNs {
			roundNs = ns
		}
		if ns := float64(b.Nanoseconds()) / float64(consumed); batchNs < 0 || ns < batchNs {
			batchNs = ns
		}
		if rate := float64(m) / float64(consumed); minRate < 0 || rate < minRate {
			minRate = rate
		}
		done += n
	}
	if minRate > 0 {
		return nil, fmt.Errorf("bench: %s batched replay allocates at steady state: %.3g allocs/op",
			t.Name, minRate)
	}
	return &BatchBenchRow{
		Device:             t.Name,
		Requests:           len(r.Reqs),
		Iters:              iters,
		BatchSize:          batchSize,
		PerRoundNsPerOp:    roundNs,
		BatchedNsPerOp:     batchNs,
		SpeedupPct:         100 * (roundNs - batchNs) / roundNs,
		BatchedAllocsPerOp: 0,
	}, nil
}

// WriteBatchJSON emits the batched-delivery comparison rows as indented
// JSON (BENCH_batch.json).
func WriteBatchJSON(w io.Writer, rows []*BatchBenchRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Benchmark string           `json:"benchmark"`
		Rows      []*BatchBenchRow `json:"rows"`
	}{Benchmark: "checker_batch", Rows: rows})
}
