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
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("%d/100 identical draws across different seeds", same)
	}
}

func TestDeriveIndependentOfDrawOrder(t *testing.T) {
	a := New(99)
	a.Uint64() // advance parent state
	d1 := a.Derive("queue")
	b := New(99)
	d2 := b.Derive("queue")
	for i := 0; i < 10; i++ {
		if d1.Uint64() != d2.Uint64() {
			t.Fatal("Derive depends on parent draw position")
		}
	}
}

func TestDeriveDistinctNames(t *testing.T) {
	p := New(5)
	a, b := p.Derive("alpha"), p.Derive("beta")
	if a.Uint64() == b.Uint64() {
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
		v := s.Normal(mu, sigma)
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
		v := s.LogNormalMeanCV(mean, cv)
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
	if got := s.LogNormalMeanCV(0, 0.5); got != 0 {
		t.Errorf("mean 0 → %v, want 0", got)
	}
	if got := s.LogNormalMeanCV(7, 0); got != 7 {
		t.Errorf("cv 0 → %v, want exactly the mean", got)
	}
}

func TestParetoTail(t *testing.T) {
	s := New(15)
	const xm, alpha = 10.0, 2.0
	for i := 0; i < 10000; i++ {
		if v := s.Pareto(xm, alpha); v < xm {
			t.Fatalf("Pareto variate %v below scale %v", v, xm)
		}
	}
}

func TestWeibullPositive(t *testing.T) {
	s := New(16)
	for i := 0; i < 10000; i++ {
		if v := s.Weibull(5, 1.5); v < 0 {
			t.Fatalf("negative Weibull variate %v", v)
		}
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

func TestZipfRankRange(t *testing.T) {
	s := New(18)
	z := NewZipf(s, 100, 1.5)
	counts := make([]int, 101)
	for i := 0; i < 50000; i++ {
		r := z.Rank()
		if r < 1 || r > 100 {
			t.Fatalf("rank %d out of [1,100]", r)
		}
		counts[r]++
	}
	if counts[1] <= counts[50] {
		t.Errorf("rank 1 count %d not greater than rank 50 count %d", counts[1], counts[50])
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
			if a.Uint64() != b.Uint64() {
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
			want := New(seed ^ h.Sum64()*0xbf58476d1ce4e5b9).Uint64()
			if got := New(seed).Derive(name).Uint64(); got != want {
				t.Errorf("Derive(%q) from seed %d draws %#x first, hash/fnv derivation %#x", name, seed, got, want)
			}
		}
	}
	s := New(5)
	if got := testing.AllocsPerRun(100, func() { _ = s.Derive("chunk-assignment").Uint64() }); got != 0 {
		t.Errorf("Derive allocates %v times, want 0", got)
	}
}
