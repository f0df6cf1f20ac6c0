package stats

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"pegflow/internal/kickstart"
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
// its input left sorted, its result the one allocation.
func TestPercentilesInPlaceSortsItsInput(t *testing.T) {
	vals := []float64{9, 3, 41, 7, 22, 5, 13, 1, 30, 17, 13}
	ps := []float64{-5, 0, 25, 50, 90, 99, 100, 150, math.NaN()}
	want := PercentilesOf(vals, ps...)
	own := slices.Clone(vals)
	if got := PercentilesInPlace(own, ps...); !slices.Equal(got, want) {
		t.Errorf("PercentilesInPlace = %v, PercentilesOf = %v", got, want)
	}
	if !slices.IsSorted(own) {
		t.Errorf("PercentilesInPlace left its input unsorted: %v", own)
	}
	if allocs := testing.AllocsPerRun(10, func() { PercentilesInPlace(own, ps...) }); allocs != 1 {
		t.Errorf("PercentilesInPlace allocates %v times, want its result only", allocs)
	}
}
