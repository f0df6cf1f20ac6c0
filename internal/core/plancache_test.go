package core

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"pegflow/internal/planner"
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

// heapAfterGC is the live heap once two collections have run.
func heapAfterGC() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestShapeCacheChargeMatchesHeap: the shape caches charge an entry from
// its key, and the charge is within 2× of the post-GC heap the entry
// holds, at n = 2,000 and 20,000, for a one-site and a two-site master. On
// a cold cache, a one-site cell builds the shape's DAX and a master; a cell
// on the other paper site then builds a master alone, and a two-site cell
// another, so the first delta less the second is the DAX.
func TestShapeCacheChargeMatchesHeap(t *testing.T) {
	defer ResetPlanCache()
	none := planner.ClusterOptions{}
	for _, n := range []int{2000, 20000} {
		ResetPlanCache()
		e := DefaultExperiment(42)
		if _, err := roundedChunkSeconds(workflow.DefaultCostModel(), e.Workload, n); err != nil {
			t.Fatal(err) // warms the chunk and workload caches out of the measurement
		}
		pair, err := PaperEnsemble(42, 1, n, planner.PolicyDataAware)
		if err != nil {
			t.Fatal(err)
		}
		pair.MemberWorkload = func(int) workflow.Workload { return e.Workload }
		cells := []*EnsembleExperiment{singleSite(t, e, "osg", n, none), singleSite(t, e, "sandhills", n, none), pair}
		var heap, charge [3]int64
		for i, cell := range cells {
			st, h := PlanCacheStats(), heapAfterGC()
			memberPlans(t, cell)
			end := PlanCacheStats()
			heap[i] = heapAfterGC() - h
			charge[i] = end.PlanBytes - st.PlanBytes + end.MemberDAXBytes - st.MemberDAXBytes
		}
		for _, c := range []struct {
			what          string
			heap, charged int64
		}{
			{"abstract DAX", heap[0] - heap[1], charge[0] - charge[1]},
			{"one-site master", heap[1], charge[1]},
			{"two-site master", heap[2], charge[2]},
		} {
			t.Logf("n=%d %s: charged %d B (%.0f B/chunk), holds %d B (%.0f B/chunk)",
				n, c.what, c.charged, float64(c.charged)/float64(n), c.heap, float64(c.heap)/float64(n))
			if c.charged > 2*c.heap || c.heap > 2*c.charged {
				t.Errorf("n=%d %s: charged %d B, holds %d B: not within 2×", n, c.what, c.charged, c.heap)
			}
		}
	}
}

// TestShapeCacheHoldsBigRun: each shape cache's budget holds big_run's
// n = 10^5 shape four times over, so no benchmark workload evicts.
func TestShapeCacheHoldsBigRun(t *testing.T) {
	const bigRunN = 100000
	dk := memberDAXKey{n: bigRunN}
	for _, c := range []struct {
		cache  string
		charge int64
	}{
		{"member-DAX", dk.charge(nil)},
		{"plan", multiPlanKey{dax: dk}.charge(nil)},
	} {
		if 4*c.charge > shapeCacheBytes {
			t.Errorf("%s cache: 4 × %d B at n=%d exceeds the %d B budget", c.cache, c.charge, bigRunN, shapeCacheBytes)
		}
	}
}

// TestFirstRetrievalBuildsOnce: eight cells racing the first retrieval of
// a shape — whether they meet in the cache (a miss each, and every Put
// returning the entry that won: internal/lru's TestDuplicatePutKeepsIncumbent)
// or in the entry's Once — build the shape's DAX and master once each. CI
// runs this under -race -count=10.
func TestFirstRetrievalBuildsOnce(t *testing.T) {
	ResetPlanCache()
	defer ResetPlanCache()
	before := PlanCacheStats()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(e *EnsembleExperiment) {
			defer wg.Done()
			<-start
			if _, err := e.plan(); err != nil {
				t.Error(err)
			}
		}(singleSite(t, DefaultExperiment(uint64(200+g)), "osg", 40, planner.ClusterOptions{}))
	}
	close(start)
	wg.Wait()
	after := PlanCacheStats()
	if got := after.PlanBuilds - before.PlanBuilds; got != 1 {
		t.Errorf("8 racing first retrievals resolved %d masters, want 1", got)
	}
	if got := after.MemberDAXBuilds - before.MemberDAXBuilds; got != 1 {
		t.Errorf("8 racing first retrievals built %d member DAXes, want 1", got)
	}
	if got := after.PlanRetrievals - before.PlanRetrievals; got != 8 {
		t.Errorf("8 cells retrieved %d plans, want 8", got)
	}
}
