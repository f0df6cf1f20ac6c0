package des

import (
	"testing"

	"pegflow/internal/sim/rng"
)

// BenchmarkScheduleFire measures the schedule→fire hot loop of the kernel:
// one event scheduled and executed per iteration, steady state.
func BenchmarkScheduleFire(b *testing.B) {
	s := New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(1, fn)
		s.Step()
	}
}

// BenchmarkScheduleFireDepth64 keeps 64 events pending while scheduling and
// firing, exercising the heap at a realistic queue depth.
func BenchmarkScheduleFireDepth64(b *testing.B) {
	s := New()
	fn := func() {}
	for i := 0; i < 64; i++ {
		s.After(float64(i+1), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(65, fn)
		s.Step()
	}
}

// BenchmarkScheduleFireRandom keeps depth events pending while scheduling
// and firing, each at an exponentially distributed delay drawn up front. The
// delays are random, so which child of a heap node holds the least key is
// not predictable — unlike BenchmarkScheduleFireDepth64, whose every event
// lands last and takes one path through the heap each pop.
func BenchmarkScheduleFireRandom(b *testing.B) {
	for _, bc := range []struct {
		name  string
		depth int
	}{{"depth600", 600}, {"depth100k", 100_000}} {
		b.Run(bc.name, func(b *testing.B) {
			const ring = 1 << 16
			src := rng.New(7)
			delays := make([]float64, ring)
			for i := range delays {
				delays[i] = src.Exponential(100)
			}
			s := New()
			h := &countHandler{}
			for i := 0; i < bc.depth; i++ {
				s.AfterOp(delays[i%ring], h, 0, 1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.AfterOp(delays[i%ring], h, 0, 1)
				s.Step()
			}
		})
	}
}

// BenchmarkResourceAcquireRelease measures the slot-pool hot path.
func BenchmarkResourceAcquireRelease(b *testing.B) {
	s := New()
	r := NewResource(s, 1)
	fn := func() { r.Release(1) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Acquire(1, fn)
		for s.Step() {
		}
	}
}
