package quantile

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// checkPs is the percentile battery used across the property tests.
var checkPs = []float64{1, 5, 10, 25, 50, 75, 90, 95, 99}

// exactAt returns the exact nearest-rank percentile of vs (unsorted).
func exactAt(vs []float64, p float64) float64 {
	s := make([]float64, len(vs))
	copy(s, vs)
	sort.Float64s(s)
	return NearestRank(s, p)
}

// rankEnvelope returns the exact values at ranks p-eps and p+eps — the
// envelope a sketch answer must fall inside.
func rankEnvelope(vs []float64, p, eps float64) (lo, hi float64) {
	return exactAt(vs, p-eps), exactAt(vs, p+eps)
}

// distributions is the table of input shapes from the satellite spec:
// uniform, exponential, Pareto (the heavy tail behind straggler exec
// times) and adversarially sorted input, P²'s classic worst case.
var distributions = []struct {
	name string
	gen  func(i int, r *rand.Rand) float64
}{
	{"uniform", func(_ int, r *rand.Rand) float64 { return r.Float64() * 1000 }},
	{"exponential", func(_ int, r *rand.Rand) float64 { return r.ExpFloat64() * 300 }},
	{"pareto", func(_ int, r *rand.Rand) float64 {
		// alpha=1.2 Pareto: infinite variance, the straggler regime.
		return math.Pow(1-r.Float64(), -1/1.2)
	}},
	{"sorted-ascending", func(i int, _ *rand.Rand) float64 { return float64(i) }},
	{"sorted-descending", func(i int, _ *rand.Rand) float64 { return float64(200000 - i) }},
}

// rankErrorEps is the documented rank-error bound (in rank points) the
// sketch must satisfy on the tested distributions; see the Sketch doc
// comment.
const rankErrorEps = 5

func TestSketchExactWhileSmall(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	s := NewSketch()
	var vs []float64
	for i := 0; i < Markers; i++ {
		v := r.Float64() * 100
		s.Add(v)
		vs = append(vs, v)
		for _, p := range checkPs {
			want := exactAt(vs, p)
			if got := s.Quantile(p); got != want {
				t.Fatalf("n=%d p=%v: sketch %v, exact %v (must be identical while small)", i+1, p, got, want)
			}
		}
	}
}

func TestSketchRankError(t *testing.T) {
	const n = 20000
	for _, dist := range distributions {
		t.Run(dist.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(42))
			s := NewSketch()
			vs := make([]float64, 0, n)
			for i := 0; i < n; i++ {
				v := dist.gen(i, r)
				s.Add(v)
				vs = append(vs, v)
			}
			for _, p := range checkPs {
				lo, hi := rankEnvelope(vs, p, rankErrorEps)
				got := s.Quantile(p)
				if got < lo || got > hi {
					t.Errorf("p=%v: sketch %v outside exact rank envelope [%v, %v] (exact %v)",
						p, got, lo, hi, exactAt(vs, p))
				}
			}
			if min := s.Quantile(0); min != exactAt(vs, 0) {
				t.Errorf("min: sketch %v, exact %v", min, exactAt(vs, 0))
			}
			if max := s.Quantile(100); max != exactAt(vs, 100) {
				t.Errorf("max: sketch %v, exact %v", max, exactAt(vs, 100))
			}
		})
	}
}

func TestSketchMergeRankError(t *testing.T) {
	const n, parts = 20000, 4
	for _, dist := range distributions {
		t.Run(dist.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(99))
			shards := make([]*Sketch, parts)
			for i := range shards {
				shards[i] = NewSketch()
			}
			vs := make([]float64, 0, n)
			for i := 0; i < n; i++ {
				v := dist.gen(i, r)
				shards[i%parts].Add(v)
				vs = append(vs, v)
			}
			merged := NewSketch()
			for _, sh := range shards {
				merged.Merge(sh)
			}
			if merged.Count() != n {
				t.Fatalf("merged count %d, want %d", merged.Count(), n)
			}
			for _, p := range checkPs {
				lo, hi := rankEnvelope(vs, p, rankErrorEps)
				got := merged.Quantile(p)
				if got < lo || got > hi {
					t.Errorf("p=%v: merged sketch %v outside envelope [%v, %v] (exact %v)",
						p, got, lo, hi, exactAt(vs, p))
				}
			}
		})
	}
}

func TestSketchMergeSmall(t *testing.T) {
	a, b := NewSketch(), NewSketch()
	var vs []float64
	for i := 0; i < 10; i++ {
		a.Add(float64(i))
		vs = append(vs, float64(i))
	}
	for i := 0; i < 12; i++ {
		b.Add(float64(100 + i))
		vs = append(vs, float64(100+i))
	}
	a.Merge(b)
	if a.Count() != 22 {
		t.Fatalf("count %d, want 22", a.Count())
	}
	for _, p := range checkPs {
		if got, want := a.Quantile(p), exactAt(vs, p); got != want {
			t.Errorf("p=%v: small merge %v, exact %v (must stay exact under Markers)", p, got, want)
		}
	}
	// Merging into an empty sketch copies; merging an empty is a no-op.
	e := NewSketch()
	e.Merge(a)
	if e.Count() != 22 || e.Quantile(50) != a.Quantile(50) {
		t.Fatalf("merge into empty: count %d q50 %v, want 22 %v", e.Count(), e.Quantile(50), a.Quantile(50))
	}
	before := a.Quantile(50)
	a.Merge(NewSketch())
	if a.Count() != 22 || a.Quantile(50) != before {
		t.Fatalf("merge of empty changed state")
	}
}

func TestSketchMonotoneAndEdges(t *testing.T) {
	s := NewSketch()
	if s.Quantile(50) != 0 {
		t.Fatalf("empty sketch must yield 0")
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		s.Add(r.NormFloat64() * 10)
	}
	if s.Quantile(math.NaN()) != 0 {
		t.Fatalf("NaN percentile must yield 0")
	}
	if s.Quantile(-10) != s.Quantile(0) || s.Quantile(150) != s.Quantile(100) {
		t.Fatalf("percentile must clamp to [0, 100]")
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 100; p += 0.5 {
		q := s.Quantile(p)
		if q < prev {
			t.Fatalf("quantiles not monotone: q(%v)=%v < %v", p, q, prev)
		}
		prev = q
	}
}

func BenchmarkSketchAdd(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = r.ExpFloat64()
	}
	s := NewSketch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(vals[i&4095])
	}
}
