package stats

import (
	"fmt"
	"io"
	"slices"
	"sort"
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

// Percentile returns the p-th percentile (0-100) of the values produced
// by f over successful attempts (nearest-rank). An empty log — or one with
// no successes — yields 0; p is clamped to [0, 100], and a NaN p (a
// 0/0 from some upstream ratio) also yields 0 rather than an
// implementation-defined float→int conversion.
//
// Callers that need several percentiles of the same metric should use
// Percentiles, which extracts and sorts the value set once for the whole
// batch instead of once per quantile.
func Percentile(log *kickstart.Log, p float64, f func(*kickstart.Record) float64) float64 {
	return Percentiles(log, f, p)[0]
}

// Percentiles returns the requested percentiles (0-100, nearest-rank) of
// the values produced by f over successful attempts, in the order given.
// The value set is extracted and sorted exactly once. Edge handling
// matches Percentile: no successes yields zeros, each p is clamped to
// [0, 100], and a NaN p yields 0.
func Percentiles(log *kickstart.Log, f func(*kickstart.Record) float64, ps ...float64) []float64 {
	var vs []float64
	for _, r := range log.Successes() {
		vs = append(vs, f(r))
	}
	return PercentilesOf(vs, ps...)
}

// PercentilesOf returns the requested percentiles (0-100, nearest-rank)
// of an arbitrary value set, with the same edge handling as Percentiles:
// an empty set yields zeros, each p is clamped to [0, 100], and a NaN p
// yields 0. The input slice is not modified. Callers that aggregate
// across several logs (package scenario) extract values themselves and
// batch them here.
func PercentilesOf(values []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(values) == 0 {
		return out
	}
	sorted := slices.Clone(values)
	sort.Float64s(sorted)
	for i, p := range ps {
		out[i] = quantile.NearestRank(sorted, p)
	}
	return out
}
