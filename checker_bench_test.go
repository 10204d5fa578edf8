// Micro-benchmarks of the per-I/O ES-Checker cost: a benign request
// stream is captured once per device and then replayed straight into the
// checker (no device, no machine dispatch in the timed region), with the
// flight recorder on (the deployed default) and off. The Reference oracle
// is not timed: it checks the engine, it is not a baseline for it. Run
// with:
//
//	go test -bench=BenchmarkCheckerPerIO -benchmem
package sedspec_test

import (
	"runtime"
	"testing"

	"sedspec/internal/bench"
	"sedspec/internal/checker"
	"sedspec/internal/workload"
)

func BenchmarkCheckerPerIO(b *testing.B) {
	for _, t := range workload.Targets(true) {
		b.Run(t.Name, func(b *testing.B) {
			r, err := bench.NewCheckerReplay(t, 60)
			if err != nil {
				b.Fatal(err)
			}
			engines := []struct {
				name string
				opts []checker.Option
			}{
				{"threaded", nil}, // flight recorder on (the deployed default)
				{"threaded-norec", []checker.Option{checker.WithRecorder(nil)}},
			}
			for _, eng := range engines {
				b.Run(eng.name, func(b *testing.B) {
					chk := r.NewChecker(eng.opts...)
					// One warm-up cycle grows the frame/temp stacks so the
					// timed region measures steady state.
					for i := 0; i < len(r.Reqs); i++ {
						if err := r.Step(chk, i); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportAllocs()
					b.ResetTimer()
					// The zero-allocation contract is asserted on the minimum
					// per-chunk malloc count: background runtime activity
					// (scavenger timers, GC worker spawns) can land a stray
					// malloc in any one chunk, but a check path that allocates
					// does so in every chunk.
					minAllocs := uint64(^uint64(0))
					var ms runtime.MemStats
					const chunk = 1 << 16
					for done := 0; done < b.N; {
						n := chunk
						if b.N-done < n {
							n = b.N - done
						}
						b.StopTimer()
						runtime.ReadMemStats(&ms)
						before := ms.Mallocs
						b.StartTimer()
						for i := done; i < done+n; i++ {
							if err := r.Step(chk, i); err != nil {
								b.Fatal(err)
							}
						}
						b.StopTimer()
						runtime.ReadMemStats(&ms)
						if d := ms.Mallocs - before; d < minAllocs {
							minAllocs = d
						}
						b.StartTimer()
						done += n
					}
					b.StopTimer()
					if b.N >= chunk && minAllocs != 0 {
						b.Fatalf("%s engine allocated %d times per %d-op chunk in steady state, want 0",
							eng.name, minAllocs, chunk)
					}
				})
			}
		})
	}
}
