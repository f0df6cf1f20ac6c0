package workflow

import (
	"math"
	"runtime"
	"testing"

	"pegflow/internal/lru"
	"pegflow/internal/sim/rng"
)

// referenceChunkSeconds is ChunkSeconds as it stood before the pooled
// int32 permutation and the wrap-around counter: an allocated rng.Perm and
// chunks[i%n]. Kept verbatim as the definition the fast path must equal bit
// for bit.
func referenceChunkSeconds(c CostModel, w Workload, n int) []float64 {
	perm := rng.New(w.Seed).Derive("chunk-assignment").Perm(len(w.Clusters))
	chunks := make([]float64, n)
	if secs := c.clusterSecondsAll(w); secs != nil {
		for i, ci := range perm {
			chunks[i%n] += secs[ci]
		}
	} else {
		for i, ci := range perm {
			chunks[i%n] += c.ClusterSeconds(w.Clusters[ci])
		}
	}
	for i := range chunks {
		chunks[i] += c.TaskBase
	}
	return chunks
}

// handBuilt is w as a caller who assembled the clusters by hand would hold
// it: a private Clusters slice and no Params fingerprint.
func handBuilt(w Workload) Workload {
	w.Clusters = append([]ClusterSpec(nil), w.Clusters...)
	w.Params = WorkloadParams{}
	return w
}

func checkChunkSeconds(t testing.TB, c CostModel, w Workload, n int) {
	t.Helper()
	got, err := c.ChunkSeconds(w, n)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceChunkSeconds(c, w, n)
	if len(got) != len(want) {
		t.Fatalf("seed %d n %d over %d clusters: %d chunks, want %d", w.Seed, n, len(w.Clusters), len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("seed %d n %d over %d clusters: chunk %d is %v (%#x), reference %v (%#x)",
				w.Seed, n, len(w.Clusters), i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestChunkSecondsMatchesReference: every float equals the reference's, for
// the paper workload and two custom laws, synthesized and hand-built, at the
// paper's n values and around n = len(clusters). The parameter sets are
// interleaved inside the seed loop so the pooled scratch is reused across
// lengths 40,000, 257 and 4,096, shrinking and growing.
func TestChunkSecondsMatchesReference(t *testing.T) {
	c := DefaultCostModel()
	params := []WorkloadParams{
		PaperWorkload(0).Params,
		{NumClusters: 257, MaxClusterSize: 90, SizeExponent: 0.8, MeanReadLen: 1100},
		{NumClusters: 4096, MaxClusterSize: 300, SizeExponent: 0.3, MeanReadLen: 700},
	}
	for _, seed := range []uint64{0, 1, 42, math.MaxUint64} {
		for _, p := range params {
			w := CustomWorkload(p, seed)
			l := len(w.Clusters)
			for _, n := range []int{1, 10, 100, 300, 500, l - 1, l, l + 7} {
				checkChunkSeconds(t, c, w, n)
				// Hand-built clusters pay math.Pow per cluster per call:
				// every n on two seeds, the edges around len on all.
				if seed <= 1 || n >= l-1 {
					checkChunkSeconds(t, c, handBuilt(w), n)
				}
			}
		}
	}
}

// FuzzChunkSeconds extends the equality over arbitrary seeds, chunk counts
// and cluster counts; the corpus under testdata/fuzz runs on every plain
// `go test`.
func FuzzChunkSeconds(f *testing.F) {
	f.Add(uint64(42), 100, 40000)
	f.Add(uint64(1), 1, 1)
	f.Add(uint64(5), 13, 12)
	f.Fuzz(func(t *testing.T, seed uint64, n, numClusters int) {
		if numClusters <= 0 || numClusters > 50000 || n <= 0 || n > numClusters+64 {
			t.Skip()
		}
		w := CustomWorkload(WorkloadParams{NumClusters: numClusters, MaxClusterSize: 120, SizeExponent: 0.5, MeanReadLen: 1000}, seed)
		c := DefaultCostModel()
		checkChunkSeconds(t, c, w, n)
		if numClusters <= 5000 {
			checkChunkSeconds(t, c, handBuilt(w), n)
		}
	})
}

// TestAllocsChunkSeconds (run by CI as `go test -run 'TestAllocs'`): with
// the permutation in pooled scratch, a call on the paper's 40,000 clusters
// allocates its n-float result and nothing that grows with the clusters.
func TestAllocsChunkSeconds(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	c := DefaultCostModel()
	w := PaperWorkload(42)
	const n, runs = 500, 40
	call := func() {
		w.Seed++
		if _, err := c.ChunkSeconds(w, n); err != nil {
			t.Fatal(err)
		}
	}
	call() // fills the memo tables and the pool
	if got := testing.AllocsPerRun(runs, call); got > 1 {
		t.Errorf("ChunkSeconds allocates %v times per call, want its result only", got)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 8*n+256 {
		t.Errorf("ChunkSeconds allocates %d bytes per call at n=%d over %d clusters, want at most %d", per, n, len(w.Clusters), 8*n+256)
	}
}

// TestPermScratchPoolIsCapped: a scratch above maxPooledPerm entries is
// dropped on release, so the largest num_clusters a client ever sent is not
// what the pool holds from then on.
func TestPermScratchPoolIsCapped(t *testing.T) {
	big := getPerm(maxPooledPerm + 1)
	if len(big.p) != maxPooledPerm+1 {
		t.Fatalf("scratch of %d entries, want %d", len(big.p), maxPooledPerm+1)
	}
	putPerm(big)
	for i := 0; i < 64; i++ {
		b := getPerm(8)
		if cap(b.p) > maxPooledPerm {
			t.Fatalf("the pool handed back a %d-entry scratch, cap is %d", cap(b.p), maxPooledPerm)
		}
		defer putPerm(b)
	}
	ok := getPerm(maxPooledPerm)
	if len(ok.p) != maxPooledPerm {
		t.Fatalf("scratch of %d entries, want %d", len(ok.p), maxPooledPerm)
	}
	putPerm(ok)
}

// TestMemoCachesBounded: 200 never-seen workload shapes — what a client
// varying num_clusters document by document sends — leave both memo tables
// inside their budgets, and a workload whose entries were evicted along the
// way gets the same chunk seconds as before.
func TestMemoCachesBounded(t *testing.T) {
	t.Cleanup(func() { clusterCache.Clear(); clusterSecsCache.Clear() })
	c := DefaultCostModel()
	shape := func(i int) WorkloadParams {
		return WorkloadParams{NumClusters: 30000 + i, MaxClusterSize: 200, SizeExponent: 0.5, MeanReadLen: 1000}
	}
	first := CustomWorkload(shape(0), 11)
	before, err := c.ChunkSeconds(first, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 200; i++ {
		if _, err := c.ChunkSeconds(CustomWorkload(shape(i), 11), 50); err != nil {
			t.Fatal(err)
		}
	}
	for name, st := range map[string]lru.Stats{"clusters": clusterCache.Stats(), "cluster seconds": clusterSecsCache.Stats()} {
		if st.MaxBytes != memoCacheBytes || st.Bytes > st.MaxBytes || st.Entries == 0 || st.Evictions == 0 {
			t.Errorf("%s memo after 200 shapes: %+v", name, st)
		}
	}
	if _, ok := clusterCache.Get(shape(0)); ok {
		t.Error("the first shape's clusters are still resident")
	}
	if _, ok := clusterSecsCache.Get(costKey{shape(0), c}); ok {
		t.Error("the first shape's cluster seconds are still resident")
	}
	// first still holds its Clusters; a fresh workload re-synthesizes them.
	for name, w := range map[string]Workload{"held": first, "re-synthesized": CustomWorkload(shape(0), 11)} {
		after, err := c.ChunkSeconds(w, 50)
		if err != nil {
			t.Fatal(err)
		}
		for i := range before {
			if math.Float64bits(before[i]) != math.Float64bits(after[i]) {
				t.Fatalf("%s workload: chunk %d is %v after eviction, %v before", name, i, after[i], before[i])
			}
		}
	}
}
