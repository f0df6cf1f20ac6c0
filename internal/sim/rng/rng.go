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
	s := new(Stream)
	s.Reseed(seed)
	return s
}

// Reseed restarts s as the stream New(seed) returns, in place.
func (s *Stream) Reseed(seed uint64) {
	*s = Stream{seed: seed, state: seed ^ 0x9e3779b97f4a7c15}
}

// Derive returns a new independent stream identified by name, derived from
// the parent stream's seed (not its current state), so derivation order
// does not matter.
func (s *Stream) Derive(name string) *Stream {
	d := new(Stream)
	s.DeriveInto(d, name)
	return d
}

// DeriveInto reseeds dst, in place, as the stream Derive(name) returns; dst
// may be s itself.
func (s *Stream) DeriveInto(dst *Stream, name string) {
	// FNV-1a over the name, spelled out: hash/fnv's hasher and the []byte
	// conversion were two allocations per derived stream, and kept Derive
	// from inlining, which put the stream itself on the heap too.
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	dst.Reseed(s.seed ^ h*0xbf58476d1ce4e5b9)
}

// next returns the next 64 random bits.
func (s *Stream) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform variate in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.next() % uint64(n))
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

// normal returns a normal variate with mean mu and standard deviation
// sigma, using the Box-Muller transform.
func (s *Stream) normal(mu, sigma float64) float64 {
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

// logNormal returns a log-normal variate whose underlying normal has mean
// mu and standard deviation sigma.
func (s *Stream) logNormal(mu, sigma float64) float64 {
	return math.Exp(s.normal(mu, sigma))
}

// MeanCV is a log-normal distribution given by its own mean and
// coefficient of variation, with the parameters of the underlying normal
// derived once. A non-positive mean is the constant 0 and a non-positive
// coefficient the constant mean; drawing from a constant consumes nothing
// from the stream.
type MeanCV struct {
	mu, sigma float64
	// fixed is the constant value when random is false.
	fixed  float64
	random bool
}

// NewMeanCV derives the log-normal distribution with the given mean and
// coefficient of variation.
func NewMeanCV(mean, cv float64) MeanCV {
	if mean <= 0 {
		return MeanCV{}
	}
	if cv <= 0 {
		return MeanCV{fixed: mean}
	}
	sigma2 := math.Log(1 + cv*cv)
	return MeanCV{mu: math.Log(mean) - sigma2/2, sigma: math.Sqrt(sigma2), random: true}
}

// Draw returns a variate of d.
func (s *Stream) Draw(d MeanCV) float64 {
	if !d.random {
		return d.fixed
	}
	return s.logNormal(d.mu, d.sigma)
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
		j := s.next() % uint64(i+1)
		p[i], p[j] = p[j], p[i]
	}
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
