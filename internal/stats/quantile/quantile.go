package quantile

import (
	"math"
	"sort"
)

// NearestRank picks the p-th percentile (0–100) from an
// ascending-sorted slice using the nearest-rank rule. The slice must be
// non-empty. A NaN p yields 0 rather than an implementation-defined
// float→int conversion; p is clamped to [0, 100].
func NearestRank(sorted []float64, p float64) float64 {
	if math.IsNaN(p) {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	idx := int(p/100*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Of evaluates a batch of percentiles (0–100) against one sketch, in the
// order given.
func Of(s *Sketch, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = s.Quantile(p)
	}
	return out
}

// Markers is the number of grid markers a Sketch maintains. The grid
// spans quantiles 0, 1/(Markers-1), …, 1, so adjacent markers are 2
// rank points apart.
const Markers = 51

// Sketch is a fixed-size streaming quantile estimator: the P² algorithm
// of Jain & Chlamtac extended to a uniform grid of Markers quantile
// markers, with deterministic CDF-resampling merge. Memory is O(1) per
// sketch (two Markers-sized arrays) regardless of stream length, and
// Add is allocation-free after construction.
//
// Accuracy contract (pinned by TestSketchRankError): while the stream
// is no longer than Markers the sketch is exact; beyond that, for the
// distributions pegflow's metrics draw from (uniform, exponential,
// Pareto-tailed service times, and adversarially sorted input), each
// reported quantile lies between the exact quantiles at ranks p−ε and
// p+ε for ε = 5 rank points, and typically within 1–2. The sketch
// interpolates between markers, so unlike the exact path it can return
// values not present in the stream.
type Sketch struct {
	n    int64
	init []float64 // startup buffer; nil once the marker grid is live
	h    [Markers]float64
	pos  [Markers]float64
}

// NewSketch returns an empty sketch. The startup buffer is allocated up
// front so Add never allocates.
func NewSketch() *Sketch {
	return &Sketch{init: make([]float64, 0, Markers)}
}

// gridQ is the target quantile (0–1) of marker i.
func gridQ(i int) float64 { return float64(i) / float64(Markers-1) }

// desired is the target position of marker i at stream length n.
func (s *Sketch) desired(i int) float64 {
	return 1 + float64(s.n-1)*gridQ(i)
}

// Count reports the number of observations.
func (s *Sketch) Count() int64 { return s.n }

// Add records one observation in O(Markers) time with no allocation.
func (s *Sketch) Add(v float64) {
	s.n++
	if s.init != nil {
		if len(s.init) < Markers {
			s.init = append(s.init, v)
			return
		}
		// The buffer is full: switch to the marker grid, then treat v
		// as the first streamed observation.
		s.activate()
	}
	// Locate the cell k with h[k] <= v < h[k+1], extending extremes.
	var k int
	switch {
	case v < s.h[0]:
		s.h[0] = v
		k = 0
	case v >= s.h[Markers-1]:
		if v > s.h[Markers-1] {
			s.h[Markers-1] = v
		}
		k = Markers - 2
	default:
		lo, hi := 0, Markers-1
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			if s.h[mid] <= v {
				lo = mid
			} else {
				hi = mid
			}
		}
		k = lo
	}
	for i := k + 1; i < Markers; i++ {
		s.pos[i]++
	}
	s.adjust()
}

// activate converts the startup buffer into the live marker grid.
func (s *Sketch) activate() {
	sort.Float64s(s.init)
	for i := 0; i < Markers; i++ {
		s.h[i] = s.init[i]
		s.pos[i] = float64(i + 1)
	}
	s.init = nil
}

// adjust nudges each interior marker toward its desired position using
// the P² parabolic prediction, falling back to linear interpolation
// when the parabola would break marker monotonicity.
func (s *Sketch) adjust() {
	for i := 1; i < Markers-1; i++ {
		d := s.desired(i) - s.pos[i]
		if !(d >= 1 && s.pos[i+1]-s.pos[i] > 1) && !(d <= -1 && s.pos[i-1]-s.pos[i] < -1) {
			continue
		}
		sgn := 1.0
		if d < 0 {
			sgn = -1.0
		}
		hp := s.parabolic(i, sgn)
		if s.h[i-1] < hp && hp < s.h[i+1] {
			s.h[i] = hp
		} else {
			s.h[i] = s.linear(i, sgn)
		}
		s.pos[i] += sgn
	}
}

func (s *Sketch) parabolic(i int, sgn float64) float64 {
	pPrev, p, pNext := s.pos[i-1], s.pos[i], s.pos[i+1]
	return s.h[i] + sgn/(pNext-pPrev)*
		((p-pPrev+sgn)*(s.h[i+1]-s.h[i])/(pNext-p)+
			(pNext-p-sgn)*(s.h[i]-s.h[i-1])/(p-pPrev))
}

func (s *Sketch) linear(i int, sgn float64) float64 {
	j := i + int(sgn)
	return s.h[i] + sgn*(s.h[j]-s.h[i])/(s.pos[j]-s.pos[i])
}

// Quantile returns the estimated p-th percentile (0–100). While the
// stream is no longer than Markers the answer is exact (nearest-rank);
// afterwards it is a piecewise-linear interpolation over the marker
// grid. An empty sketch yields 0, NaN p yields 0, and p is clamped.
func (s *Sketch) Quantile(p float64) float64 {
	if s.n == 0 || math.IsNaN(p) {
		return 0
	}
	if s.init != nil {
		vs := make([]float64, len(s.init))
		copy(vs, s.init)
		sort.Float64s(vs)
		return NearestRank(vs, p)
	}
	if p <= 0 {
		return s.h[0]
	}
	if p >= 100 {
		return s.h[Markers-1]
	}
	r := 1 + p/100*float64(s.n-1)
	// Find the marker pair bracketing rank r. pos[0] == 1 and
	// pos[Markers-1] == n, so r always lands inside the grid.
	j := sort.Search(Markers, func(i int) bool { return s.pos[i] >= r }) // first pos >= r
	if j <= 0 {
		return s.h[0]
	}
	if j >= Markers {
		return s.h[Markers-1]
	}
	span := s.pos[j] - s.pos[j-1]
	if span <= 0 {
		return s.h[j]
	}
	return lerpClamped(s.h[j-1], s.h[j], (r-s.pos[j-1])/span)
}

// lerpClamped interpolates between lo and hi (lo <= hi) at fraction t,
// clamping the result into [lo, hi]: the naive one-product form can
// overshoot a bound by an ulp near t≈0 or t≈1 (catastrophic
// cancellation when lo and hi differ by hundreds of orders of
// magnitude), which would break quantile monotonicity.
func lerpClamped(lo, hi, t float64) float64 {
	v := lo + t*(hi-lo)
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Merge folds other into s deterministically: the two sketches'
// piecewise-linear CDFs are summed and resampled at the marker grid.
// The result depends only on the two operand states, not on insertion
// interleaving, so merging per-worker sketches in a fixed order yields
// reproducible output. other is not modified.
func (s *Sketch) Merge(other *Sketch) {
	if other == nil || other.n == 0 {
		return
	}
	if s.n == 0 {
		s.copyFrom(other)
		return
	}
	if s.init != nil && other.init != nil && len(s.init)+len(other.init) <= Markers {
		s.init = append(s.init, other.init...)
		s.n += other.n
		return
	}
	// Knots: every distinct value where either CDF bends.
	knots := make([]float64, 0, 2*Markers)
	knots = appendKnots(knots, s)
	knots = appendKnots(knots, other)
	sort.Float64s(knots)
	knots = dedupSorted(knots)
	cum := make([]float64, len(knots))
	for i, x := range knots {
		cum[i] = s.rankAt(x) + other.rankAt(x)
	}
	n := s.n + other.n
	var h [Markers]float64
	for i := 0; i < Markers; i++ {
		target := 1 + float64(n-1)*gridQ(i)
		h[i] = invertCDF(knots, cum, target)
	}
	s.n = n
	s.init = nil
	s.h = h
	for i := 0; i < Markers; i++ {
		s.pos[i] = s.desired(i)
	}
	// Desired positions are monotone but float rounding could collapse
	// adjacent heights ordering; restore the marker invariant.
	for i := 1; i < Markers; i++ {
		if s.h[i] < s.h[i-1] {
			s.h[i] = s.h[i-1]
		}
	}
}

func (s *Sketch) copyFrom(other *Sketch) {
	s.n = other.n
	s.h = other.h
	s.pos = other.pos
	if other.init != nil {
		s.init = append(s.init[:0], other.init...)
	} else {
		s.init = nil
	}
}

func appendKnots(knots []float64, s *Sketch) []float64 {
	if s.init != nil {
		return append(knots, s.init...)
	}
	return append(knots, s.h[:]...)
}

func dedupSorted(vs []float64) []float64 {
	out := vs[:0]
	for i, v := range vs {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// rankAt evaluates the sketch's piecewise-linear rank function at x:
// approximately the number of observations ≤ x, ranging from 0 below
// the minimum to Count at and above the maximum.
func (s *Sketch) rankAt(x float64) float64 {
	if s.init != nil {
		// Startup buffer: exact empirical rank. The buffer is small, so
		// a linear count keeps it allocation-free without presorting.
		c := 0.0
		for _, v := range s.init {
			if v <= x {
				c++
			}
		}
		return c
	}
	if x < s.h[0] {
		return 0
	}
	if x >= s.h[Markers-1] {
		return float64(s.n)
	}
	j := sort.Search(Markers, func(i int) bool { return s.h[i] > x }) // first h > x
	// 1 <= j <= Markers-1 here.
	span := s.h[j] - s.h[j-1]
	if span <= 0 {
		return s.pos[j-1]
	}
	return lerpClamped(s.pos[j-1], s.pos[j], (x-s.h[j-1])/span)
}

// invertCDF returns the x at which the sampled cumulative rank reaches
// target, interpolating linearly between knots.
func invertCDF(knots, cum []float64, target float64) float64 {
	k := sort.SearchFloat64s(cum, target)
	if k <= 0 {
		return knots[0]
	}
	if k >= len(knots) {
		return knots[len(knots)-1]
	}
	span := cum[k] - cum[k-1]
	if span <= 0 {
		return knots[k]
	}
	return lerpClamped(knots[k-1], knots[k], (target-cum[k-1])/span)
}
