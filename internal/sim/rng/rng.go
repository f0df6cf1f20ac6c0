package rng

import "math"

// Stream is a deterministic pseudo-random stream (splitmix64 core, xorshift
// finalizer). It intentionally does not use math/rand so that the sequence
// is stable across Go releases.
type Stream struct {
	seed  uint64
	state uint64
	// spare holds a cached standard normal variate (Box-Muller pairs).
	spare    float64
	hasSpare bool
}

// New returns a stream seeded with the given value.
func New(seed uint64) *Stream {
	return &Stream{seed: seed, state: seed ^ 0x9e3779b97f4a7c15}
}

// Derive returns a new independent stream identified by name, derived from
// the parent stream's seed (not its current state), so derivation order
// does not matter.
func (s *Stream) Derive(name string) *Stream {
	// FNV-1a over the name, spelled out: hash/fnv's hasher and the []byte
	// conversion were two allocations per derived stream, and kept Derive
	// from inlining, which put the stream itself on the heap too.
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return New(s.seed ^ h*0xbf58476d1ce4e5b9)
}

// Uint64 returns the next 64 random bits.
func (s *Stream) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform variate in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Uniform returns a uniform variate in [lo, hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Exponential returns an exponential variate with the given mean.
func (s *Stream) Exponential(mean float64) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -mean * math.Log(u)
}

// Normal returns a normal variate with mean mu and standard deviation
// sigma, using the Box-Muller transform.
func (s *Stream) Normal(mu, sigma float64) float64 {
	if s.hasSpare {
		s.hasSpare = false
		return mu + sigma*s.spare
	}
	var u, v, r float64
	for {
		u = 2*s.Float64() - 1
		v = 2*s.Float64() - 1
		r = u*u + v*v
		if r > 0 && r < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(r) / r)
	s.spare = v * f
	s.hasSpare = true
	return mu + sigma*u*f
}

// LogNormal returns a log-normal variate whose underlying normal has mean
// mu and standard deviation sigma.
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// LogNormalMeanCV returns a log-normal variate parameterized by its own
// mean and coefficient of variation (stddev/mean), which is how the
// platform configs express overhead distributions.
func (s *Stream) LogNormalMeanCV(mean, cv float64) float64 {
	if mean <= 0 {
		return 0
	}
	if cv <= 0 {
		return mean
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	return s.LogNormal(mu, math.Sqrt(sigma2))
}

// Pareto returns a Pareto variate with scale xm and shape alpha.
func (s *Stream) Pareto(xm, alpha float64) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Weibull returns a Weibull variate with scale lambda and shape k.
func (s *Stream) Weibull(lambda, k float64) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return lambda * math.Pow(-math.Log(u), 1/k)
}

// Perm returns a random permutation of [0, n).
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// PermInt32 fills p with a random permutation of [0, len(p)) in place: the
// permutation Perm(len(p)) returns, from the same draws, without the
// allocation and at half the footprint. len(p) must fit an int32.
func (s *Stream) PermInt32(p []int32) {
	for i := range p {
		p[i] = int32(i)
	}
	for i := len(p) - 1; i > 0; i-- {
		j := s.Uint64() % uint64(i+1)
		p[i], p[j] = p[j], p[i]
	}
}

// Zipf samples ranks from a Zipf distribution over {1, ..., n} with
// exponent sExp, using precomputed cumulative weights for O(log n) draws.
type Zipf struct {
	cum []float64
	src *Stream
}

// NewZipf builds a Zipf sampler over n ranks with exponent sExp > 0.
func NewZipf(src *Stream, n int, sExp float64) *Zipf {
	if n <= 0 {
		panic("rng: Zipf with non-positive n")
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), sExp)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &Zipf{cum: cum, src: src}
}

// Rank returns a rank in [1, n], with rank 1 the most probable.
func (z *Zipf) Rank() int {
	u := z.src.Float64()
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// ZipfSizes returns n cluster sizes following a Zipf-like rank-size law:
// size(rank r) = max(1, round(c / r^sExp)), where c is chosen so the
// largest size equals maxSize. The result is deterministic (no sampling):
// it is the rank-size profile itself, which is what the workload
// descriptor needs.
func ZipfSizes(n int, sExp float64, maxSize int) []int {
	sizes := make([]int, n)
	for r := 1; r <= n; r++ {
		v := float64(maxSize) / math.Pow(float64(r), sExp)
		iv := int(math.Round(v))
		if iv < 1 {
			iv = 1
		}
		sizes[r-1] = iv
	}
	return sizes
}
