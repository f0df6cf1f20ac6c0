package rng

import (
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatalf("streams with same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.next() == b.next() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("%d/100 identical draws across different seeds", same)
	}
}

func TestDeriveIndependentOfDrawOrder(t *testing.T) {
	a := New(99)
	a.next() // advance parent state
	d1 := a.Derive("queue")
	b := New(99)
	d2 := b.Derive("queue")
	for i := 0; i < 10; i++ {
		if d1.next() != d2.next() {
			t.Fatal("Derive depends on parent draw position")
		}
	}
}

func TestDeriveDistinctNames(t *testing.T) {
	p := New(5)
	a, b := p.Derive("alpha"), p.Derive("beta")
	if a.next() == b.next() {
		t.Error("streams derived with different names produced identical first draw")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestIntnRangeAndPanic(t *testing.T) {
	s := New(4)
	for i := 0; i < 1000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	s.Intn(0)
}

func TestExponentialMean(t *testing.T) {
	s := New(11)
	const n, mean = 200000, 42.0
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.Exponential(mean)
		if v < 0 {
			t.Fatalf("negative exponential variate %v", v)
		}
		sum += v
	}
	got := sum / n
	if math.Abs(got-mean)/mean > 0.02 {
		t.Errorf("sample mean %.2f, want ≈%.1f", got, mean)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(12)
	const n = 200000
	const mu, sigma = 5.0, 2.0
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.normal(mu, sigma)
		sum += v
		sumsq += v * v
	}
	m := sum / n
	sd := math.Sqrt(sumsq/n - m*m)
	if math.Abs(m-mu) > 0.05 {
		t.Errorf("mean %.3f, want ≈%.1f", m, mu)
	}
	if math.Abs(sd-sigma) > 0.05 {
		t.Errorf("stddev %.3f, want ≈%.1f", sd, sigma)
	}
}

func TestLogNormalMeanCV(t *testing.T) {
	s := New(13)
	const n = 300000
	const mean, cv = 300.0, 0.5
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.Draw(NewMeanCV(mean, cv))
		if v <= 0 {
			t.Fatalf("non-positive lognormal variate %v", v)
		}
		sum += v
	}
	got := sum / n
	if math.Abs(got-mean)/mean > 0.03 {
		t.Errorf("sample mean %.2f, want ≈%.0f", got, mean)
	}
}

func TestLogNormalMeanCVDegenerate(t *testing.T) {
	s := New(14)
	if got := s.Draw(NewMeanCV(0, 0.5)); got != 0 {
		t.Errorf("mean 0 → %v, want 0", got)
	}
	if got := s.Draw(NewMeanCV(7, 0)); got != 7 {
		t.Errorf("cv 0 → %v, want exactly the mean", got)
	}
}

// TestMeanCVTwinStreams: a distribution derived once draws, bit for bit,
// what the derivation spelled out at every draw does, each on its own twin
// of one stream, and leaves the two at the same position — so a constant
// (mean <= 0 or cv <= 0) consumes no draw. Odd draw counts leave a
// Box-Muller spare behind for the next pair.
func TestMeanCVTwinStreams(t *testing.T) {
	reference := func(s *Stream, mean, cv float64) float64 {
		if mean <= 0 {
			return 0
		}
		if cv <= 0 {
			return mean
		}
		sigma2 := math.Log(1 + cv*cv)
		return math.Exp(s.normal(math.Log(mean)-sigma2/2, math.Sqrt(sigma2)))
	}
	means := []float64{math.Inf(-1), -3, -0.0, 0, 1e-9, 0.5, 1, 30, 700, 1e12, math.Inf(1), math.NaN()}
	cvs := []float64{math.Inf(-1), -1, -0.0, 0, 1e-6, 0.25, 0.5, 1, 3.5, math.Inf(1), math.NaN()}
	derived, spelled := New(99), New(99)
	for _, mean := range means {
		for _, cv := range cvs {
			d := NewMeanCV(mean, cv)
			for k := 0; k < 3; k++ {
				b := derived.Draw(d)
				c := reference(spelled, mean, cv)
				if math.Float64bits(b) != math.Float64bits(c) {
					t.Fatalf("mean %v cv %v draw %d: Draw %v, reference %v", mean, cv, k, b, c)
				}
			}
			if *derived != *spelled {
				t.Fatalf("mean %v cv %v: stream at %+v (Draw), reference at %+v", mean, cv, *derived, *spelled)
			}
		}
	}
	if *spelled == *New(99) {
		t.Fatal("the grid drew nothing")
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(17)
	f := func(nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := s.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZipfSizesShape(t *testing.T) {
	sizes := ZipfSizes(1000, 1.5, 5000)
	if sizes[0] != 5000 {
		t.Errorf("largest size = %d, want 5000", sizes[0])
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] > sizes[i-1] {
			t.Fatalf("sizes not nonincreasing at %d: %d > %d", i, sizes[i], sizes[i-1])
		}
	}
	if sizes[len(sizes)-1] < 1 {
		t.Error("smallest size below 1")
	}
}

func TestZipfSizesHeavyTailDominance(t *testing.T) {
	// The mechanism behind the paper's plateau: the largest cluster is a
	// significant fraction of total work even with many clusters.
	sizes := ZipfSizes(20000, 1.55, 4000)
	total := 0
	for _, v := range sizes {
		total += v
	}
	frac := float64(sizes[0]) / float64(total)
	if frac < 0.01 {
		t.Errorf("largest cluster only %.4f of total; tail not heavy enough", frac)
	}
}

func TestUniformRange(t *testing.T) {
	s := New(19)
	for i := 0; i < 10000; i++ {
		v := s.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform(2,5) = %v", v)
		}
	}
}

// PermInt32 is Perm in place: same permutation, same number of draws, for
// lengths around the edge cases and a buffer reused across lengths.
func TestPermInt32MatchesPerm(t *testing.T) {
	buf := make([]int32, 0, 5000)
	for _, n := range []int{0, 1, 2, 3, 17, 1000, 5000, 256, 1} {
		for seed := uint64(1); seed <= 5; seed++ {
			a, b := New(seed).Derive("perm"), New(seed).Derive("perm")
			want := a.Perm(n)
			got := buf[:n]
			b.PermInt32(got)
			for i := range want {
				if int(got[i]) != want[i] {
					t.Fatalf("seed %d n %d: element %d is %d, Perm gives %d", seed, n, i, got[i], want[i])
				}
			}
			if a.next() != b.next() {
				t.Fatalf("seed %d n %d: the streams diverged after the permutation", seed, n)
			}
		}
	}
	p := make([]int32, 1000)
	s := New(9)
	if got := testing.AllocsPerRun(50, func() { s.PermInt32(p) }); got != 0 {
		t.Errorf("PermInt32 allocates %v times, want 0", got)
	}
}

// Derive spells FNV-1a out instead of calling hash/fnv; the derived seeds,
// and with them every golden in the tree, must not notice.
func TestDeriveMatchesHashFNV(t *testing.T) {
	for _, name := range []string{"", "a", "chunk-assignment", "backoff/wf03", "dispatch", "sëed/ünicode"} {
		h := fnv.New64a()
		h.Write([]byte(name))
		for _, seed := range []uint64{0, 1, 42, math.MaxUint64} {
			want := New(seed ^ h.Sum64()*0xbf58476d1ce4e5b9).next()
			if got := New(seed).Derive(name).next(); got != want {
				t.Errorf("Derive(%q) from seed %d draws %#x first, hash/fnv derivation %#x", name, seed, got, want)
			}
		}
	}
	s := New(5)
	if got := testing.AllocsPerRun(100, func() { _ = s.Derive("chunk-assignment").next() }); got != 0 {
		t.Errorf("Derive allocates %v times, want 0", got)
	}
}

// TestInPlaceEqualsAllocated: Reseed restarts a used stream as New does,
// and DeriveInto — into another stream or into the parent itself — seeds
// the stream Derive returns.
func TestInPlaceEqualsAllocated(t *testing.T) {
	var s Stream
	s.Reseed(99)
	s.Float64()
	s.normal(0, 1) // leaves a spare normal behind
	s.Reseed(7)
	if want := New(7); s != *want {
		t.Errorf("Reseed(7) on a used stream = %+v, New(7) = %+v", s, *want)
	}
	var d Stream
	s.DeriveInto(&d, "dispatch")
	if want := New(7).Derive("dispatch"); d != *want {
		t.Errorf("DeriveInto = %+v, Derive = %+v", d, *want)
	}
	s.DeriveInto(&s, "platform/osg")
	if want := New(7).Derive("platform/osg"); s != *want {
		t.Errorf("DeriveInto the parent itself = %+v, Derive = %+v", s, *want)
	}
}
