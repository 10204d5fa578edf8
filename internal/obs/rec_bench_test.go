package obs

import "testing"

// Micro-benchmarks of the recorder hot path and its two halves. The
// checker-facing cost (Append + field fills + Count, published every 64
// rounds) is guarded end-to-end by TestRecorderOverheadGuard in the root
// package; these pin where a regression lives when that guard trips.

func BenchmarkRecordOnly(b *testing.B) {
	g := NewRegistry()
	r := g.NewRecorder("", "dev", 0, DefaultRingSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := r.Append(int64(i))
		ev.Round, ev.Addr, ev.Steps, ev.Kind = uint64(i), 0x3f5, 20, KindPIOWrite
		ev.Strategy, ev.Verdict = StrategyNone, VerdictOK
		r.Count(ev.Steps, ev.Strategy, ev.Verdict)
		if i%64 == 63 {
			r.Publish()
		}
	}
}

func BenchmarkRingAppendOnly(b *testing.B) {
	g := NewRegistry()
	r := g.NewRecorder("", "dev", 0, DefaultRingSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ring.append(Event{Tick: int64(i), Round: uint64(i), Addr: 0x3f5, Steps: 20, Kind: KindPIOWrite})
	}
}

func BenchmarkBankRecordOnly(b *testing.B) {
	g := NewRegistry()
	r := g.NewRecorder("", "dev", 0, DefaultRingSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.bank.count(20, StrategyNone, VerdictOK)
	}
}
