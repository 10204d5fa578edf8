package sedspec_test

import (
	"encoding/binary"
	"testing"

	"sedspec/internal/checker"
	"sedspec/internal/cvesim"
	"sedspec/internal/interp"
)

// FuzzEngineDifferential generalizes the engine differentials from the
// nine captured exploit streams to their mutations. Each input picks a
// PoC, a mode and a batch window, and edits the PoC's captured request
// stream with a small program (payload bytes, addresses inside the window
// the stream touches, dropped and repeated requests). The mutated stream
// is replayed per round on the threaded engine (the baseline) and on the
// reference engine, and batched on the threaded engine; all three runs
// must agree in blocked anomalies, warnings, counters and shadow state,
// and the two threaded runs in coverage.
func FuzzEngineDifferential(f *testing.F) {
	pocs := cvesim.All()
	caps := make([]*capturedPoC, len(pocs))
	for i, p := range pocs {
		caps[i] = captureExploit(f, p)
		f.Add(uint8(i), false, uint8(15), []byte(nil))
		f.Add(uint8(i), true, uint8(3), []byte{
			0, 0, 0, 1, 0xff, // payload byte of request 0
			1, 1, 0, 0, 4, // address of request 1
			2, 2, 0, 0, 0, // drop request 2
			3, 0, 0, 0, 0, // repeat request 0
		})
	}
	budget := diffBudgets[0].opts
	f.Fuzz(func(t *testing.T, poc uint8, enhance bool, window uint8, prog []byte) {
		c := *caps[int(poc)%len(caps)]
		c.reqs = mutateStream(c.reqs, prog)
		if len(c.reqs) == 0 {
			return
		}
		mode := checker.ModeProtection
		if enhance {
			mode = checker.ModeEnhancement
		}
		baseline := replayPerRound(t, &c, mode, budget, threadedEngine)
		assertSameStream(t, "per-round/reference", replayPerRound(t, &c, mode, budget, referenceEngine), baseline)
		assertSameStream(t, "batched/threaded", replayBatched(t, &c, mode, budget, 1+int(window)), baseline)
	})
}

// mutateStream applies prog to a deep copy of reqs, five bytes per edit:
// an opcode, a little-endian request index, and two argument bytes.
// Opcode 0 sets a payload byte, 1 moves the request to another address
// inside the span its space covers in the original stream, 2 drops the
// request and 3 repeats it. The stream grows by at most 64 requests.
func mutateStream(reqs []*interp.Request, prog []byte) []*interp.Request {
	type span struct{ lo, hi uint64 }
	spans := map[interp.Space]span{}
	out := make([]*interp.Request, len(reqs))
	for i, r := range reqs {
		out[i] = &interp.Request{Space: r.Space, Addr: r.Addr, Write: r.Write, Data: append([]byte(nil), r.Data...)}
		s, ok := spans[r.Space]
		if !ok || r.Addr < s.lo {
			s.lo = r.Addr
		}
		if !ok || r.Addr > s.hi {
			s.hi = r.Addr
		}
		spans[r.Space] = s
	}
	for ; len(prog) >= 5 && len(out) > 0; prog = prog[5:] {
		j := int(binary.LittleEndian.Uint16(prog[1:3])) % len(out)
		a, b := prog[3], prog[4]
		r := out[j]
		switch prog[0] % 4 {
		case 0:
			if len(r.Data) > 0 {
				r.Data[int(a)%len(r.Data)] = b
			}
		case 1:
			s := spans[r.Space]
			r.Addr = s.lo + uint64(binary.LittleEndian.Uint16(prog[3:5]))%(s.hi-s.lo+1)
		case 2:
			out = append(out[:j], out[j+1:]...)
		case 3:
			if len(out) < len(reqs)+64 {
				cl := &interp.Request{Space: r.Space, Addr: r.Addr, Write: r.Write, Data: append([]byte(nil), r.Data...)}
				out = append(out[:j+1], append([]*interp.Request{cl}, out[j+1:]...)...)
			}
		}
	}
	return out
}
