package obs

import "testing"

// Micro-benchmarks of the recorder hot path and its two halves. The
// checker-facing cost (AppendCommitted + field fills) is guarded
// end-to-end by TestRecorderOverheadGuard in the root package; these
// pin where a regression lives when that guard trips.

func BenchmarkRecordOnly(b *testing.B) {
	g := NewRegistry()
	r := g.NewRecorder("dev", 0, DefaultRingSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(Event{Tick: int64(i), Round: uint64(i), Addr: 0x3f5, Steps: 20, Kind: KindPIOWrite})
	}
}

func BenchmarkRingAppendOnly(b *testing.B) {
	g := NewRegistry()
	r := g.NewRecorder("dev", 0, DefaultRingSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ring.append(Event{Tick: int64(i), Round: uint64(i), Addr: 0x3f5, Steps: 20, Kind: KindPIOWrite})
	}
}

func BenchmarkBankRecordOnly(b *testing.B) {
	g := NewRegistry()
	r := g.NewRecorder("dev", 0, DefaultRingSize)
	ev := Event{Latency: 1, Steps: 20}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.bank.record(&ev)
	}
}
