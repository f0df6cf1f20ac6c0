package core

import (
	"math"
	"testing"

	"pegflow/internal/workflow"
)

// directChunkSeconds is roundedChunkSeconds without the cache: the values a
// cached slice must equal bit for bit.
func directChunkSeconds(t testing.TB, cost workflow.CostModel, w workflow.Workload, n int) []float64 {
	t.Helper()
	chunks, err := cost.ChunkSeconds(w, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range chunks {
		chunks[i] = roundMillis(chunks[i])
	}
	return chunks
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestChunkCacheBounded: the one cache keyed on a seed stays inside its
// budget however many seeds pass through, and every slice handed out,
// resident or long evicted, equals the direct computation. The budget is
// scaled down to 2 MiB (≈ 490 entries at n = 500) so that 1,500 never-seen
// seeds overflow it three times in a fraction of a second, -race included;
// internal/lru's own test holds the bound over 10^5 keys.
func TestChunkCacheBounded(t *testing.T) {
	const budget = 2 << 20
	defer SetChunkCacheBytes(budget)()
	const n, seeds = 500, 1500
	params := workflow.WorkloadParams{NumClusters: 700, MaxClusterSize: 40, SizeExponent: 0.5, MeanReadLen: 900}
	cost := workflow.DefaultCostModel()
	before := PlanCacheStats()
	for seed := uint64(1); seed <= seeds; seed++ {
		w := workflow.CustomWorkload(params, seed)
		got, err := roundedChunkSeconds(cost, w, n)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, directChunkSeconds(t, cost, w, n)) {
			t.Fatalf("seed %d: cached chunk seconds differ from the direct computation", seed)
		}
	}
	after := PlanCacheStats()
	if after.ChunkBytes > budget || after.ChunkBytes < budget*9/10 {
		t.Errorf("chunk cache holds %d bytes after %d seeds, want a full cache within its %d-byte budget", after.ChunkBytes, seeds, budget)
	}
	if after.ChunkEvictions == before.ChunkEvictions {
		t.Error("no evictions although the seeds outgrew the budget")
	}
	if got := after.ChunkMisses - before.ChunkMisses; got != seeds {
		t.Errorf("%d misses over %d never-seen seeds", got, seeds)
	}
	// The most recent seed is resident, the first long gone; both still
	// yield the same values, and only the first is recomputed.
	for _, seed := range []uint64{seeds, 1} {
		w := workflow.CustomWorkload(params, seed)
		got, err := roundedChunkSeconds(cost, w, n)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, directChunkSeconds(t, cost, w, n)) {
			t.Errorf("seed %d: second lookup differs from the direct computation", seed)
		}
	}
	end := PlanCacheStats()
	if h, m := end.ChunkHits-after.ChunkHits, end.ChunkMisses-after.ChunkMisses; h != 1 || m != 1 {
		t.Errorf("resident + evicted lookups: %d hits and %d misses, want 1 and 1", h, m)
	}
}

// TestChunkCacheKeyAndBypass: each field of the key separates entries, a
// slice too large for a shard's share is computed but not kept, and a
// hand-built workload never touches the cache.
func TestChunkCacheKeyAndBypass(t *testing.T) {
	ResetPlanCache()
	defer ResetPlanCache()
	params := workflow.WorkloadParams{NumClusters: 300, MaxClusterSize: 30, SizeExponent: 0.5, MeanReadLen: 700}
	other := params
	other.MeanReadLen = 701
	cost := workflow.DefaultCostModel()
	slow := cost
	slow.TaskBase = 31
	lookups := []struct {
		cost workflow.CostModel
		w    workflow.Workload
		n    int
	}{
		{cost, workflow.CustomWorkload(params, 1), 7},
		{cost, workflow.CustomWorkload(params, 2), 7},
		{cost, workflow.CustomWorkload(params, 1), 8},
		{cost, workflow.CustomWorkload(other, 1), 7},
		{slow, workflow.CustomWorkload(params, 1), 7},
	}
	start := PlanCacheStats()
	for round := 0; round < 2; round++ {
		for i, l := range lookups {
			got, err := roundedChunkSeconds(l.cost, l.w, l.n)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, directChunkSeconds(t, l.cost, l.w, l.n)) {
				t.Errorf("round %d lookup %d: wrong chunk seconds", round, i)
			}
		}
	}
	st := PlanCacheStats()
	if h, m := st.ChunkHits-start.ChunkHits, st.ChunkMisses-start.ChunkMisses; h != uint64(len(lookups)) || m != uint64(len(lookups)) {
		t.Errorf("%d hits and %d misses over two rounds of %d distinct keys", h, m, len(lookups))
	}

	// 300,000 floats are 2.4 MB: more than a shard's 2 MiB share.
	big := workflow.CustomWorkload(params, 9)
	for i := 0; i < 2; i++ {
		if _, err := roundedChunkSeconds(cost, big, 300000); err != nil {
			t.Fatal(err)
		}
	}
	if got := PlanCacheStats(); got.ChunkHits != st.ChunkHits || got.ChunkBytes != st.ChunkBytes {
		t.Errorf("an oversized slice was kept: %+v -> %+v", st, got)
	}

	hand := workflow.CustomWorkload(params, 3)
	hand.Clusters = append([]workflow.ClusterSpec(nil), hand.Clusters...)
	hand.Params = workflow.WorkloadParams{}
	st = PlanCacheStats()
	for i := 0; i < 2; i++ {
		got, err := roundedChunkSeconds(cost, hand, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, directChunkSeconds(t, cost, workflow.CustomWorkload(params, 3), 7)) {
			t.Error("hand-built workload: wrong chunk seconds")
		}
	}
	if got := PlanCacheStats(); got != st {
		t.Errorf("a hand-built workload moved the chunk-cache counters: %+v -> %+v", st, got)
	}
}

// TestAllocsChunkSeconds (run by CI as `go test -run 'TestAllocs'`): a hit
// hands out the resident slice and allocates nothing; a miss through the
// cache costs the slice and its entry.
func TestAllocsChunkSeconds(t *testing.T) {
	ResetPlanCache()
	defer ResetPlanCache()
	cost := workflow.DefaultCostModel()
	w := workflow.PaperWorkload(42)
	call := func(w workflow.Workload) {
		if _, err := roundedChunkSeconds(cost, w, 500); err != nil {
			t.Fatal(err)
		}
	}
	call(w)
	if got := testing.AllocsPerRun(100, func() { call(w) }); got != 0 {
		t.Errorf("a chunk-cache hit allocates %v times, want 0", got)
	}
	seed := uint64(1000)
	if got := testing.AllocsPerRun(20, func() { seed++; w.Seed = seed; call(w) }); got > 3 {
		t.Errorf("a chunk-cache miss allocates %v times, want the slice, its entry and at most one more", got)
	}
}
