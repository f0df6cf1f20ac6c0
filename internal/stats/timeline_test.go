package stats

import (
	"bytes"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"pegflow/internal/kickstart"
	"pegflow/internal/sim/rng"
	"pegflow/internal/stats/quantile"
)

func timelineLog(t *testing.T) *kickstart.Log {
	t.Helper()
	return buildLog(t,
		// waits 0-100, installs 100-200, runs 200-400
		rec("a", "t", 0, 100, 200, 400, kickstart.StatusSuccess, 1),
		// runs 0-400 with no waiting/install
		rec("b", "t", 0, 0, 0, 400, kickstart.StatusSuccess, 1),
	)
}

func TestBuildTimelinePhases(t *testing.T) {
	tl := BuildTimeline(timelineLog(t), 4)
	if len(tl.Buckets) != 4 || tl.BucketSeconds != 100 {
		t.Fatalf("buckets = %d width %v", len(tl.Buckets), tl.BucketSeconds)
	}
	b0 := tl.Buckets[0]
	if b0.Waiting != 1 || b0.Installing != 0 || b0.Executing != 1 {
		t.Errorf("bucket 0 = %+v, want waiting 1, executing 1", b0)
	}
	b1 := tl.Buckets[1]
	if b1.Installing != 1 || b1.Executing != 1 {
		t.Errorf("bucket 1 = %+v, want installing 1, executing 1", b1)
	}
	b3 := tl.Buckets[3]
	if b3.Executing != 2 || b3.Waiting != 0 {
		t.Errorf("bucket 3 = %+v, want 2 executing", b3)
	}
}

func TestBuildTimelineEmptyAndDegenerate(t *testing.T) {
	tl := BuildTimeline(&kickstart.Log{}, 5)
	if len(tl.Buckets) != 0 {
		t.Errorf("empty log timeline = %+v", tl)
	}
	tl = BuildTimeline(timelineLog(t), 0) // clamped to 1 bucket
	if len(tl.Buckets) != 1 {
		t.Errorf("bucket clamp failed: %d", len(tl.Buckets))
	}
	if tl.Buckets[0].Executing != 2 {
		t.Errorf("single bucket = %+v", tl.Buckets[0])
	}
}

func TestWriteTimelineRendering(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTimeline(&buf, BuildTimeline(timelineLog(t), 4), 40); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "#") {
		t.Error("no executing bars rendered")
	}
	if !strings.Contains(out, ".") {
		t.Error("no waiting bars rendered")
	}
	if !strings.Contains(out, "+") {
		t.Error("no installing bars rendered")
	}
	if lines := strings.Count(out, "\n"); lines != 5 { // header + 4 buckets
		t.Errorf("rendered %d lines", lines)
	}
}

func TestPercentile(t *testing.T) {
	var recs []*kickstart.Record
	for i := 1; i <= 100; i++ {
		r := rec("j", "t", 0, 0, 0, float64(i), kickstart.StatusSuccess, 1)
		recs = append(recs, r)
	}
	vals := successExecs(buildLog(t, recs...))
	if got := PercentilesOf(vals, 50)[0]; got != 50 {
		t.Errorf("p50 = %v", got)
	}
	if got := PercentilesOf(vals, 100)[0]; got != 100 {
		t.Errorf("p100 = %v", got)
	}
	if got := PercentilesOf(vals, 0)[0]; got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := PercentilesOf(nil, 50)[0]; got != 0 {
		t.Errorf("empty p50 = %v", got)
	}
}

// A batch must agree with one-percentile calls while sorting only once,
// and must leave its input unsorted.
func TestPercentilesBatchMatchesSingles(t *testing.T) {
	vals := []float64{9, 3, 41, 7, 22, 5, 13, 1, 30, 17}
	orig := append([]float64(nil), vals...)
	ps := []float64{-5, 0, 25, 50, 90, 99, 100, 150, math.NaN()}
	got := PercentilesOf(vals, ps...)
	if len(got) != len(ps) {
		t.Fatalf("PercentilesOf returned %d values for %d quantiles", len(got), len(ps))
	}
	for i, p := range ps {
		if want := PercentilesOf(vals, p)[0]; got[i] != want {
			t.Errorf("PercentilesOf[%d] (p=%v) = %v, want %v", i, p, got[i], want)
		}
	}
	if !slices.Equal(vals, orig) {
		t.Errorf("PercentilesOf reordered its input: %v", vals)
	}
	empty := PercentilesOf(nil, 50, 90)
	if empty[0] != 0 || empty[1] != 0 {
		t.Errorf("empty batch = %v, want zeros", empty)
	}
}

// PercentilesInPlace is PercentilesOf without the copy: the same values,
// its input left a permutation of what it was, its result the one
// allocation.
func TestAllocsPercentilesInPlace(t *testing.T) {
	vals := []float64{9, 3, 41, 7, 22, 5, 13, 1, 30, 17, 13}
	ps := []float64{-5, 0, 25, 50, 90, 99, 100, 150, math.NaN()}
	want := PercentilesOf(vals, ps...)
	own := slices.Clone(vals)
	if got := PercentilesInPlace(own, ps...); !slices.Equal(got, want) {
		t.Errorf("PercentilesInPlace = %v, PercentilesOf = %v", got, want)
	}
	if !samePermutation(own, vals) {
		t.Errorf("PercentilesInPlace left %v, not a permutation of %v", own, vals)
	}
	if allocs := testing.AllocsPerRun(10, func() { PercentilesInPlace(own, ps...) }); allocs != 1 {
		t.Errorf("PercentilesInPlace allocates %v times, want its result only", allocs)
	}
}

// samePermutation reports whether a and b hold the same float64 bit
// patterns, each as often.
func samePermutation(a, b []float64) bool {
	bitsOf := func(v []float64) []uint64 {
		out := make([]uint64, len(v))
		for i, x := range v {
			out[i] = math.Float64bits(x)
		}
		slices.Sort(out)
		return out
	}
	return slices.Equal(bitsOf(a), bitsOf(b))
}

// checkPercentiles fails unless PercentilesInPlace on a copy of values
// equals sort.Float64s and quantile.NearestRank for every p, and leaves the
// copy a permutation of values. Results are compared with ==, NaN equal to
// NaN: a sort may order -0 and +0 either way, so their bits may differ.
func checkPercentiles(t *testing.T, values, ps []float64) {
	t.Helper()
	own := slices.Clone(values)
	got := PercentilesInPlace(own, ps...)
	sorted := slices.Clone(values)
	sort.Float64s(sorted)
	for i, p := range ps {
		want := 0.0
		if len(sorted) > 0 {
			want = quantile.NearestRank(sorted, p)
		}
		if got[i] != want && !(math.IsNaN(got[i]) && math.IsNaN(want)) {
			t.Fatalf("p=%v of %d values %v: selected %v, sorted %v", p, len(values), values, got[i], want)
		}
	}
	if !samePermutation(own, values) {
		t.Fatalf("PercentilesInPlace left %v, not a permutation of %v", own, values)
	}
}

// TestPercentilesSelectEqualsSort: selection equals sorting on value sets
// of every length from 1 to 300 — random, with duplicates, with NaN, ±Inf
// and ±0, ascending and descending — for p inside (0, 100), at and beyond
// both ends, infinite and NaN, in random order and repeated.
func TestPercentilesSelectEqualsSort(t *testing.T) {
	src := rng.New(40)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	edge := []float64{math.NaN(), -5, 0, 100, 150, math.Inf(1), math.Inf(-1)}
	for n := 1; n <= 300; n++ {
		for shape := 0; shape < 6; shape++ {
			values := make([]float64, n)
			for i := range values {
				switch shape {
				case 0: // distinct with high probability
					values[i] = src.Float64() * 1000
				case 1: // few distinct values
					values[i] = float64(src.Intn(4))
				case 2: // specials among duplicates
					if src.Intn(4) == 0 {
						values[i] = specials[src.Intn(len(specials))]
					} else {
						values[i] = float64(src.Intn(10))
					}
				case 3: // ascending
					values[i] = float64(i)
				case 4: // descending
					values[i] = float64(n - i)
				case 5: // all equal
					values[i] = 7
				}
			}
			ps := []float64{50, 90, 99}
			for k := src.Intn(6); k > 0; k-- {
				ps = append(ps, src.Float64()*100, edge[src.Intn(len(edge))])
			}
			ps = append(ps, ps[src.Intn(len(ps))])
			checkPercentiles(t, values, ps)
		}
	}
}

// FuzzPercentiles: selection equals sort.Float64s + quantile.NearestRank.
// The first byte is the number of percentiles (mod 8), one byte each; the
// rest are values, one byte each. A byte below 16 picks a special — NaN,
// ±Inf, ±0, or for a percentile one at or beyond an end — and other bytes
// a value among few, so duplicates are common.
func FuzzPercentiles(f *testing.F) {
	f.Add([]byte{3, 128, 230, 252, 40, 41, 40, 200, 17})
	f.Add([]byte{2, 0, 5, 0, 1, 2, 3, 4, 17, 33})
	f.Add([]byte{7, 1, 2, 3, 4, 5, 6, 7, 99, 99, 99})
	f.Add([]byte{1, 200, 250})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		np := int(prog[0] % 8)
		prog = prog[1:]
		specialP := []float64{math.NaN(), -1, 0, 100, 101, math.Inf(1), math.Inf(-1), 50}
		specialV := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
		var ps, values []float64
		for i, b := range prog {
			switch {
			case i < np && b < 16:
				ps = append(ps, specialP[int(b)%len(specialP)])
			case i < np:
				ps = append(ps, float64(b-16)*100/239)
			case b < 16:
				values = append(values, specialV[int(b)%len(specialV)])
			default:
				values = append(values, float64(b%32)/4)
			}
		}
		checkPercentiles(t, values, ps)
	})
}
