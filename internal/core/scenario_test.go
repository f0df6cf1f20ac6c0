package core_test

import (
	"bytes"
	"testing"

	"pegflow/internal/core"
	"pegflow/internal/scenario"
)

// singleSiteSweep is a what-if grid whose cells differ on the axes the
// chunk-seconds key leaves out: two site sets over the same seeds and n.
const singleSiteSweep = `{
  "version": 1,
  "name": "chunk-cache-sweep",
  "sites": [{"preset": "sandhills", "slots": 40}, {"preset": "osg", "slots": 80}],
  "site_sets": [["sandhills"], ["osg"]],
  "workload": {"params": {"num_clusters": 400, "max_cluster_size": 60, "size_exponent": 0.5, "mean_read_len": 900},
               "n": [8, 24], "seeds": [1, 2, 3, 4, 5, 6]}
}`

func runSweep(t *testing.T, workers int) []byte {
	t.Helper()
	d, err := scenario.Parse("chunk-cache-sweep", []byte(singleSiteSweep))
	if err != nil {
		t.Fatal(err)
	}
	comp, err := scenario.Compile(d)
	if err != nil {
		t.Fatal(err)
	}
	lines, err := comp.Run(scenario.RunOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Join(lines, []byte("\n"))
}

// TestSweepBytesIndependentOfChunkCache: a sweep's NDJSON does not depend on
// where a cell's chunk runtimes came from — computed (cold), resident
// (warm), or recomputed after eviction because the cache holds one entry per
// shard and every insertion pushes its neighbour out.
func TestSweepBytesIndependentOfChunkCache(t *testing.T) {
	core.ResetPlanCache()
	defer core.ResetPlanCache()
	start := core.PlanCacheStats()
	cold := runSweep(t, 1)
	afterCold := core.PlanCacheStats()
	warm := runSweep(t, 4)
	afterWarm := core.PlanCacheStats()

	// 24 cells ask for 12 (seed, n) pairs: each is dealt once and found
	// once on the cold pass, and found by every cell of the warm one.
	if h, m := afterCold.ChunkHits-start.ChunkHits, afterCold.ChunkMisses-start.ChunkMisses; h != 12 || m != 12 {
		t.Errorf("cold pass: %d chunk hits and %d misses over 24 cells, want 12 and 12", h, m)
	}
	if h, m := afterWarm.ChunkHits-afterCold.ChunkHits, afterWarm.ChunkMisses-afterCold.ChunkMisses; h != 24 || m != 0 {
		t.Errorf("warm pass: %d chunk hits and %d misses over 24 cells, want 24 and 0", h, m)
	}

	// 512 bytes a shard: one entry of either n fits (320 and 448 bytes
	// charged), two do not.
	restore := core.SetChunkCacheBytes(16 * 512)
	defer restore()
	shrunk := runSweep(t, 1)
	shrunkAgain := runSweep(t, 4)
	st := core.PlanCacheStats()
	if st.ChunkEvictions == 0 || st.ChunkBytes > 16*512 {
		t.Errorf("shrunk cache: %d evictions, %d bytes resident of %d", st.ChunkEvictions, st.ChunkBytes, 16*512)
	}
	for name, got := range map[string][]byte{"warm": warm, "shrunk": shrunk, "shrunk, second pass": shrunkAgain} {
		if !bytes.Equal(cold, got) {
			t.Errorf("%s: output differs from the cold pass:\n--- cold ---\n%s\n--- got ---\n%s", name, cold, got)
		}
	}
}
