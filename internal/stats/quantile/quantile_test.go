package quantile

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// rankErrorEps is a rank-error envelope (in rank points) the sketch must
// satisfy on the tested distributions. A Sketch's ranks are exact (see its
// doc comment), and on these distributions 5 rank points span many of its
// buckets.
const rankErrorEps = 5

func TestSketchExactWhileSmall(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	s := NewSketch()
	var vs []float64
	for i := 0; i < maxInline; i++ {
		v := r.Float64() * 100
		s.Add(v)
		vs = append(vs, v)
		for _, p := range checkPs {
			want := exactAt(vs, p)
			if got := s.quantile(p); got != want {
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
				got := s.quantile(p)
				if got < lo || got > hi {
					t.Errorf("p=%v: sketch %v outside exact rank envelope [%v, %v] (exact %v)",
						p, got, lo, hi, exactAt(vs, p))
				}
			}
			if min := s.quantile(0); min != exactAt(vs, 0) {
				t.Errorf("min: sketch %v, exact %v", min, exactAt(vs, 0))
			}
			if max := s.quantile(100); max != exactAt(vs, 100) {
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
				got := merged.quantile(p)
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
		if got, want := a.quantile(p), exactAt(vs, p); got != want {
			t.Errorf("p=%v: small merge %v, exact %v (must stay exact under maxInline)", p, got, want)
		}
	}
	// Merging into an empty sketch copies; merging an empty is a no-op.
	e := NewSketch()
	e.Merge(a)
	if e.Count() != 22 || e.quantile(50) != a.quantile(50) {
		t.Fatalf("merge into empty: count %d q50 %v, want 22 %v", e.Count(), e.quantile(50), a.quantile(50))
	}
	before := a.quantile(50)
	a.Merge(NewSketch())
	if a.Count() != 22 || a.quantile(50) != before {
		t.Fatalf("merge of empty changed state")
	}
}

func TestSketchMonotoneAndEdges(t *testing.T) {
	s := NewSketch()
	if s.quantile(50) != 0 {
		t.Fatalf("empty sketch must yield 0")
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		s.Add(r.NormFloat64() * 10)
	}
	if s.quantile(math.NaN()) != 0 {
		t.Fatalf("NaN percentile must yield 0")
	}
	if s.quantile(-10) != s.quantile(0) || s.quantile(150) != s.quantile(100) {
		t.Fatalf("percentile must clamp to [0, 100]")
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 100; p += 0.5 {
		q := s.quantile(p)
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

// checkContract returns an error unless got is an answer the Sketch
// contract allows for the p-th percentile of the ascending values sorted.
func checkContract(sorted []float64, p, got float64) error {
	n := len(sorted)
	i := NearestRankIndex(n, p)
	q := sorted[i]
	lo, hi := 1.0/(1<<11), float64(1<<23) // the documented range
	var ok bool
	switch {
	case n <= maxInline || i == 0 || i == n-1:
		ok = got == q
	case q < 0:
		ok = got == sorted[0]
	case q == 0 || q >= lo && q < hi:
		ok = math.Abs(got-q) <= q/256
	case q < lo:
		ok = math.Abs(got-q) <= lo && got >= sorted[0] && got <= sorted[n-1]
	default:
		ok = got == sorted[n-1]
	}
	if !ok {
		return fmt.Errorf("n=%d p=%v: sketch %v, exact %v (rank %d)", n, p, got, q, i)
	}
	return nil
}

// boundShapes are the inputs the relative bound is checked on: a point
// mass and a gap, where a rank-interpolating sketch reports values that
// are not in the stream, a heavy tail, and sorted and reverse-sorted
// input.
var boundShapes = []struct {
	name string
	gen  func(i, n int, r *rand.Rand) float64
}{
	{"point-mass", func(_, _ int, r *rand.Rand) float64 {
		if r.Float64() < 0.6 {
			return 0
		}
		return r.ExpFloat64() * 100
	}},
	{"gap", func(_, _ int, r *rand.Rand) float64 {
		if r.Intn(2) == 0 {
			return r.Float64()
		}
		return 1000 + r.Float64()
	}},
	{"pareto", func(_, _ int, r *rand.Rand) float64 { return math.Pow(1-r.Float64(), -1/1.2) }},
	{"sorted-ascending", func(i, _ int, _ *rand.Rand) float64 { return float64(i) }},
	{"sorted-descending", func(i, n int, _ *rand.Rand) float64 { return float64(n - i) }},
}

// TestSketchRelativeBound checks the Sketch contract against exact
// NearestRank on every shape, for one sketch and for merges of 1–64
// member sketches of 1–600 values each: every merge order, linear or
// pairwise, and adding every value to one sketch give bit-equal answers.
func TestSketchRelativeBound(t *testing.T) {
	ps := []float64{0, 0.1, 1, 5, 10, 25, 50, 60, 75, 90, 95, 99, 99.9, 100}
	for _, shape := range boundShapes {
		for _, members := range []int{1, 2, 7, 64} {
			t.Run(fmt.Sprintf("%s/%d", shape.name, members), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(members)))
				sizes := make([]int, members)
				n := 0
				for i := range sizes {
					sizes[i] = 1 + r.Intn(600)
					n += sizes[i]
				}
				var vals []float64
				direct := NewSketch()
				parts := make([]*Sketch, members)
				for m := range parts {
					parts[m] = NewSketch()
					for j := 0; j < sizes[m]; j++ {
						v := shape.gen(len(vals), n, r)
						vals = append(vals, v)
						parts[m].Add(v)
						direct.Add(v)
					}
				}
				slices.Sort(vals)
				sketches := []*Sketch{direct, pairwise(parts)}
				for k := 0; k < 3; k++ {
					merged := NewSketch()
					for _, m := range r.Perm(members) {
						merged.Merge(parts[m])
					}
					sketches = append(sketches, merged)
				}
				for _, p := range ps {
					want := direct.quantile(p)
					if err := checkContract(vals, p, want); err != nil {
						t.Error(err)
					}
					for k, s := range sketches {
						if got := s.quantile(p); math.Float64bits(got) != math.Float64bits(want) {
							t.Errorf("p=%v: merge order %d gives %v, one sketch %v", p, k, got, want)
						}
					}
				}
			})
		}
	}
}

// TestSketchEveryRank checks the contract at every rank of a stream that
// fills each region a Sketch counts apart: negative values, -0 and +0,
// values below 2^-11, inside the range (at both its edges too) and at or
// above 2^23.
func TestSketchEveryRank(t *testing.T) {
	var vals []float64
	for i := 0; i < 40; i++ {
		vals = append(vals, -float64(i+1), math.Copysign(0, -1), 0, 1e-5*float64(i+1),
			1.0/2048+1e-6*float64(i), 3+float64(i), 8e6+float64(i), 1e8*float64(i+1))
	}
	r := rand.New(rand.NewSource(3))
	r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	s := NewSketch()
	for _, v := range vals {
		s.Add(v)
	}
	slices.Sort(vals)
	for k := 0; k <= 4*len(vals); k++ {
		p := 100 * float64(k) / float64(4*len(vals))
		if err := checkContract(vals, p, s.quantile(p)); err != nil {
			t.Fatal(err)
		}
	}
}

// pairwise merges parts as a balanced tree into fresh sketches, leaving
// parts unmodified.
func pairwise(parts []*Sketch) *Sketch {
	if len(parts) == 1 {
		s := NewSketch()
		s.Merge(parts[0])
		return s
	}
	l, r := pairwise(parts[:len(parts)/2]), pairwise(parts[len(parts)/2:])
	l.Merge(r)
	return l
}

var (
	sketchSink   *Sketch
	quantileSink float64
)

// TestAllocsSketch: NewSketch is the one allocation; Add, Merge and
// Quantile, on a stream held inline and on one past it, make none.
func TestAllocsSketch(t *testing.T) {
	if avg := testing.AllocsPerRun(100, func() { sketchSink = NewSketch() }); avg != 1 {
		t.Errorf("NewSketch allocates %.1f objects, want 1", avg)
	}
	small, big, into := NewSketch(), NewSketch(), NewSketch()
	for i := 0; i < 10; i++ {
		small.Add(float64(i))
	}
	for i := 0; i < 1000; i++ {
		big.Add(float64(i) / 7)
	}
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"Add", func() { big.Add(3.5) }},
		{"Merge", func() { into.Merge(big) }},
		{"Quantile", func() { quantileSink = big.quantile(99) }},
		{"Quantile of an inline stream", func() { quantileSink = small.quantile(50) }},
	} {
		if avg := testing.AllocsPerRun(100, c.f); avg != 0 {
			t.Errorf("%s allocates %.1f objects, want 0", c.name, avg)
		}
	}
}

func BenchmarkSketchQuantile(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	s := NewSketch()
	for i := 0; i < 100000; i++ {
		s.Add(r.ExpFloat64() * 300)
	}
	ps := []float64{50, 90, 99}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quantileSink = s.quantile(ps[i%3])
	}
}
