package stats

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"pegflow/internal/kickstart"
	"pegflow/internal/stats/quantile"
)

// Timeline renders an ASCII utilization chart from a kickstart log — the
// role of pegasus-plots: for each time bucket, how many jobs were waiting,
// installing, and executing. Useful for eyeballing where a platform loses
// time (long waiting ramps on OSG vs dense execution on the campus
// cluster).
type Timeline struct {
	// BucketSeconds is the width of each row's time bucket.
	BucketSeconds float64
	// Buckets holds per-bucket concurrency peaks.
	Buckets []TimelineBucket
}

// TimelineBucket is one row of the chart.
type TimelineBucket struct {
	// Start is the bucket's start time in seconds.
	Start float64
	// Waiting, Installing and Executing are the peak number of attempts
	// in each phase during the bucket.
	Waiting, Installing, Executing int
}

// BuildTimeline aggregates a log into the given number of buckets
// (minimum 1). Failed attempts count toward utilization too: they
// occupied resources until they died.
func BuildTimeline(log *kickstart.Log, buckets int) Timeline {
	if buckets < 1 {
		buckets = 1
	}
	end := 0.0
	for _, r := range log.Records() {
		if r.EndTime > end {
			end = r.EndTime
		}
	}
	if end == 0 {
		return Timeline{BucketSeconds: 0, Buckets: nil}
	}
	width := end / float64(buckets)
	tl := Timeline{BucketSeconds: width, Buckets: make([]TimelineBucket, buckets)}
	for i := range tl.Buckets {
		tl.Buckets[i].Start = float64(i) * width
	}
	clamp := func(i int) int {
		if i < 0 {
			return 0
		}
		if i >= buckets {
			return buckets - 1
		}
		return i
	}
	span := func(from, to float64, bump func(*TimelineBucket)) {
		if to <= from {
			return
		}
		b0, b1 := clamp(int(from/width)), clamp(int((to-1e-9)/width))
		for b := b0; b <= b1; b++ {
			bump(&tl.Buckets[b])
		}
	}
	for _, r := range log.Records() {
		span(r.SubmitTime, r.SetupStart, func(b *TimelineBucket) { b.Waiting++ })
		span(r.SetupStart, r.ExecStart, func(b *TimelineBucket) { b.Installing++ })
		span(r.ExecStart, r.EndTime, func(b *TimelineBucket) { b.Executing++ })
	}
	return tl
}

// WriteTimeline renders the chart; each row shows the bucket start time
// and bars for executing (#), installing (+) and waiting (.), scaled so
// the widest row fits maxWidth characters.
func WriteTimeline(w io.Writer, tl Timeline, maxWidth int) error {
	if maxWidth <= 0 {
		maxWidth = 60
	}
	peak := 1
	for _, b := range tl.Buckets {
		if v := b.Waiting + b.Installing + b.Executing; v > peak {
			peak = v
		}
	}
	scale := func(v int) int {
		n := v * maxWidth / peak
		if v > 0 && n == 0 {
			n = 1
		}
		return n
	}
	if _, err := fmt.Fprintf(w, "# timeline: '#'=executing '+'=installing '.'=waiting (peak %d)\n", peak); err != nil {
		return err
	}
	for _, b := range tl.Buckets {
		bar := strings.Repeat("#", scale(b.Executing)) +
			strings.Repeat("+", scale(b.Installing)) +
			strings.Repeat(".", scale(b.Waiting))
		if _, err := fmt.Fprintf(w, "%10.0fs |%s\n", b.Start, bar); err != nil {
			return err
		}
	}
	return nil
}

// PercentilesOf returns the requested percentiles (0-100, nearest-rank)
// of a value set, in the order given, selecting them in one copy for the
// whole batch. An empty set yields zeros, each p is clamped to [0, 100],
// and a NaN p (a 0/0 from some upstream ratio) yields 0 rather than an
// implementation-defined float→int conversion. The input slice is not
// modified.
func PercentilesOf(values []float64, ps ...float64) []float64 {
	return PercentilesInPlace(slices.Clone(values), ps...)
}

// PercentilesInPlace is PercentilesOf for values the caller owns and no
// longer needs in their order: it permutes them in place instead of a copy.
// Package scenario extracts a cell's values across several logs into
// slices of its own and batches them here.
//
// It selects the ranks instead of sorting. The order is sort.Float64s's —
// NaN first — so every result equals what sorting and reading
// quantile.NearestRank gives: one pass moves the NaNs to the front, and
// each requested rank past them is quickselected inside the window the
// ranks already placed bound, the middle one first, so k ranks of n values
// cost O(n log k). Its result is its one allocation: the ranks are ordered
// in it before it is filled.
func PercentilesInPlace(values []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(values) == 0 {
		return out
	}
	n := len(values)
	for i, p := range ps {
		out[i] = float64(quantile.NearestRankIndex(n, p))
	}
	slices.Sort(out)
	nans := 0
	for i, x := range values {
		if x != x {
			values[i], values[nans] = values[nans], x
			nans++
		}
	}
	selectRanks(values, nans, n, out)
	for i, p := range ps {
		if k := quantile.NearestRankIndex(n, p); k >= 0 {
			out[i] = values[k]
		} else {
			out[i] = 0
		}
	}
	return out
}

// selectRanks places the element of every rank in ranks (ascending, each
// a float64 index; those outside [lo, hi) are skipped) at that index of v,
// permuting only v[lo:hi], which must hold the ranks lo…hi-1 of v and no
// NaN. The middle rank goes first; it then bounds the windows of the ranks
// below and above it.
func selectRanks(v []float64, lo, hi int, ranks []float64) {
	for len(ranks) > 0 && int(ranks[0]) < lo {
		ranks = ranks[1:]
	}
	for len(ranks) > 0 && int(ranks[len(ranks)-1]) >= hi {
		ranks = ranks[:len(ranks)-1]
	}
	if len(ranks) == 0 {
		return
	}
	m := len(ranks) / 2
	k := int(ranks[m])
	selectRank(v, lo, hi-1, k)
	selectRanks(v, lo, k, ranks[:m])
	selectRanks(v, k+1, hi, ranks[m+1:])
}

// selectRank permutes v[l:r+1], which holds no NaN, so that v[k] is its
// element of rank k - l, with nothing greater before it and nothing lesser
// after it. It is Hoare's quickselect on the median of three: the pivot's
// neighbours are sentinels for the inner scans, and both scans stop at keys
// equal to the pivot, so runs of equal values split evenly.
func selectRank(v []float64, l, r, k int) {
	for r > l+1 {
		mid := int(uint(l+r) >> 1)
		v[mid], v[l+1] = v[l+1], v[mid]
		if v[l] > v[r] {
			v[l], v[r] = v[r], v[l]
		}
		if v[l+1] > v[r] {
			v[l+1], v[r] = v[r], v[l+1]
		}
		if v[l] > v[l+1] {
			v[l], v[l+1] = v[l+1], v[l]
		}
		// v[l] <= v[l+1] <= v[r]: the pivot is v[l+1].
		i, j, p := l+1, r, v[l+1]
		for {
			for i++; v[i] < p; i++ {
			}
			for j--; v[j] > p; j-- {
			}
			if j < i {
				break
			}
			v[i], v[j] = v[j], v[i]
		}
		// v[l:j] <= p = v[j] <= v[j+1:r+1]; v[j+1:i] (empty, or one key
		// both scans stopped at) equals p.
		v[l+1], v[j] = v[j], p
		switch {
		case k < j:
			r = j - 1
		case k >= i:
			l = i
		default:
			return
		}
	}
	if r == l+1 && v[r] < v[l] {
		v[l], v[r] = v[r], v[l]
	}
}
