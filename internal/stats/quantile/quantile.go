package quantile

import (
	"math"
	"slices"
)

// NearestRank picks the p-th percentile (0–100) from an
// ascending-sorted slice using the nearest-rank rule. The slice must be
// non-empty. A NaN p yields 0 rather than an implementation-defined
// float→int conversion; p is clamped to [0, 100].
func NearestRank(sorted []float64, p float64) float64 {
	i := NearestRankIndex(len(sorted), p)
	if i < 0 {
		return 0
	}
	return sorted[i]
}

// NearestRankIndex returns the index NearestRank reads in a sorted slice of
// n > 0 values, or -1 for a NaN p.
func NearestRankIndex(n int, p float64) int {
	if math.IsNaN(p) {
		return -1
	}
	if p <= 0 {
		return 0
	}
	if p >= 100 {
		return n - 1
	}
	// The conversion rounds the product, so no host fuses it into the add.
	idx := int(float64(p/100*float64(n))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// Of evaluates a batch of percentiles (0–100) against one sketch, in the
// order given.
func Of(s *Sketch, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = s.quantile(p)
	}
	return out
}

// maxInline is the number of values a Sketch keeps as given: a stream of at
// most maxInline values is answered exactly.
const maxInline = 51

// The bucket layout. A positive value's bucket is its float64 exponent and
// the top subBits bits of its mantissa, so a bucket spans 2^-subBits of its
// binade and its midpoint lies within 2^-(subBits+1) = 2^-8 relative of
// every value in it. The range is [2^loExp, 2^hiExp) seconds, about 0.5 ms
// to 97 days.
const (
	subBits = 7
	shift   = 52 - subBits
	loExp   = -11
	hiExp   = 23
	buckets = (hiExp - loExp) << subBits

	loBits  = uint64(1023+loExp) << 52
	hiBits  = uint64(1023+hiExp) << 52
	signBit = uint64(1) << 63
)

// Sketch is a streaming quantile histogram keyed on a value's float64 bits:
// HdrHistogram's log-linear layout with DDSketch's relative-error
// guarantee. It counts every value exactly, so ranks are exact and only
// the value inside a bucket is approximated. Memory is fixed at about
// 18 KiB per sketch (4352 uint32 bucket counts, the first maxInline values,
// the exact min and max), whatever the stream length; a bucket counts at
// most 2^32−1 values. Add and Merge use integer and bit operations and
// comparisons only, and nothing the Sketch does after NewSketch
// allocates.
//
// Accuracy contract (pinned by TestSketchRelativeBound, TestSketchEveryRank
// and FuzzSketch):
// let q be NearestRank of the p-th percentile over all the values added
// or merged in, in any order. The answer at p (Of(s, p)) is:
//   - q itself while the stream has at most maxInline values, and at the
//     ranks of the minimum and the maximum;
//   - a value within 2^-8·q of q when q is 0 or inside the range
//     [2^-11, 2^23): the midpoint of q's bucket, clamped to the observed
//     [min, max];
//   - 2^-11 clamped to [min, max] when 0 < q < 2^-11, so within 2^-11
//     of q;
//   - the exact maximum when q ≥ 2^23;
//   - the exact minimum when q is negative. A negative stream value is
//     counted below zero and reported only as the minimum.
//
// NaN input sorts below every value, as sort.Float64s orders it; it is
// counted, reported as the minimum, and takes no part in min and max. Every
// answer lies in [min, max] and is monotone in p. Merge adds counts, so it
// is commutative and associative: neither the worker count nor the order
// of members can change an answer.
type Sketch struct {
	n        int64
	min, max float64
	// neg, zero and under count the values below zero (with NaN), equal
	// to zero and in (0, 2^-11); a value at or above 2^23 is counted in n
	// alone.
	neg, zero, under int64
	inline           [maxInline]float64
	counts           [buckets]uint32
}

// NewSketch returns an empty sketch; the zero Sketch is not one, since its
// min and max start at 0.
func NewSketch() *Sketch {
	return &Sketch{min: math.Inf(1), max: math.Inf(-1)}
}

// Count reports the number of observations.
func (s *Sketch) Count() int64 { return s.n }

// Add records one observation.
func (s *Sketch) Add(v float64) {
	if s.n < maxInline {
		s.inline[s.n] = v
	}
	s.n++
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	b := math.Float64bits(v)
	switch {
	case b-loBits < hiBits-loBits:
		s.counts[(b-loBits)>>shift]++
	case b&^signBit == 0:
		s.zero++
	case b >= signBit:
		s.neg++
	case b < loBits:
		s.under++
	}
}

// quantile returns the p-th percentile (0–100) under the contract on
// Sketch. An empty sketch yields 0, NaN p yields 0, and p is clamped.
func (s *Sketch) quantile(p float64) float64 {
	if s.n == 0 || math.IsNaN(p) {
		return 0
	}
	if s.n <= maxInline {
		var buf [maxInline]float64
		vs := buf[:s.n]
		copy(vs, s.inline[:s.n])
		slices.Sort(vs)
		return NearestRank(vs, p)
	}
	i := int64(NearestRankIndex(int(s.n), p))
	switch {
	case i == 0, i < s.neg:
		return s.min
	case i == s.n-1:
		return s.max
	}
	if i -= s.neg; i < s.zero {
		return 0
	}
	if i -= s.zero; i < s.under {
		return s.clamp(math.Float64frombits(loBits))
	}
	i -= s.under
	for k, c := range s.counts {
		if i < int64(c) {
			return s.clamp(math.Float64frombits(loBits + uint64(k)<<shift + 1<<(shift-1)))
		}
		i -= int64(c)
	}
	return s.max
}

func (s *Sketch) clamp(v float64) float64 { return min(max(v, s.min), s.max) }

// Merge folds other into s; other is not modified. The result is the
// sketch of both streams, whatever the order of the merges.
func (s *Sketch) Merge(other *Sketch) {
	if other == nil || other.n == 0 {
		return
	}
	if s.n+other.n <= maxInline {
		copy(s.inline[s.n:], other.inline[:other.n])
	}
	s.n += other.n
	s.min = min(s.min, other.min)
	s.max = max(s.max, other.max)
	s.neg += other.neg
	s.zero += other.zero
	s.under += other.under
	for k, c := range other.counts {
		s.counts[k] += c
	}
}
