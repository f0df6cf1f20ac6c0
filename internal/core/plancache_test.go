package core

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	"pegflow/internal/workflow"
)

// sprintfRound is the reference: the DAX builder's "%.3f" profile, parsed
// back as the planner parses it.
func sprintfRound(t testing.TB, x float64) float64 {
	v, err := strconv.ParseFloat(fmt.Sprintf("%.3f", x), 64)
	if err != nil {
		t.Fatalf("reference round trip of %v: %v", x, err)
	}
	return v
}

func checkRoundMillis(t testing.TB, x float64) {
	if got, want := roundMillis(x), sprintfRound(t, x); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("roundMillis(%v) = %v (%#x), \"%%.3f\" round trip gives %v (%#x)",
			x, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// roundMillisCorpus are the awkward inputs: exact ties at the fourth
// decimal, the magnitudes from 1e-9 to 1e15, and values around them.
func roundMillisCorpus() []float64 {
	xs := []float64{0, 1, 0.0005, 0.0015, 0.0025, 2.5, 1e-9, 4.9999e-4, 5.0001e-4, 1e15, 123456789.0005}
	for k := 0; k < 2000; k++ {
		xs = append(xs, float64(k)+0.0005, float64(k)*1.001+0.0005)
	}
	for e := -9; e <= 15; e++ {
		m := math.Pow(10, float64(e))
		xs = append(xs, m, 3*m, 7.7777*m, math.Nextafter(m, 0), math.Nextafter(m, math.Inf(1)))
	}
	return xs
}

// TestRoundMillisMatchesSprintf: the allocation-free rounding is the "%.3f"
// round trip bit for bit — over the corpus, a pseudo-random sweep of
// magnitudes, and the real chunk runtimes of the paper preset — and
// allocates nothing.
func TestRoundMillisMatchesSprintf(t *testing.T) {
	for _, x := range roundMillisCorpus() {
		checkRoundMillis(t, x)
	}
	state := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 20000; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		frac := float64(state>>11) / (1 << 53)
		checkRoundMillis(t, math.Pow(10, -9+24*frac))
	}
	w := workflow.PaperWorkload(42)
	for _, n := range PaperNValues {
		chunks, err := workflow.DefaultCostModel().ChunkSeconds(w, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range chunks {
			checkRoundMillis(t, x)
		}
	}
	x := 1234.56789
	if got := testing.AllocsPerRun(100, func() { x = roundMillis(x + 0.0007) }); got != 0 {
		t.Errorf("roundMillis allocates %v times per call, want 0", got)
	}
}

// FuzzRoundMillis extends the property over arbitrary finite, non-negative
// runtimes.
func FuzzRoundMillis(f *testing.F) {
	for _, x := range roundMillisCorpus()[:64] {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Skip()
		}
		checkRoundMillis(t, math.Abs(x))
	})
}
