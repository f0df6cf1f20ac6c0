// Shared cache machinery: the budget and charges of the plan and member-DAX
// caches (ensemble.go), their counters, and the chunk-seconds cache. All
// three are internal/lru caches. The only seed-dependent part of a plan is
// the set of run_cap3 chunk runtimes (the seed drives nothing but the
// cluster→chunk assignment permutation); they depend on the seed and n but
// not on the site, so the chunk-seconds cache keeps each (workload, cost
// model, seed, n)'s slice — rounded exactly as the "%.3f" DAX runtime
// profiles round them — in a byte-bounded LRU that every member plan reads
// through roundedChunkSeconds.

package core

import (
	"strconv"
	"sync/atomic"

	"pegflow/internal/lru"
	"pegflow/internal/workflow"
)

// shapeCacheBytes is the budget of each shape cache (plan and member DAX):
// 1 GiB is over 4× the charge of big_run's n = 10^5 shape in either (≈ 171
// MiB of abstract DAX, ≈ 49 MiB of master), so no benchmark workload, test
// or example evicts. It is a constant, not an option. A cell holds its
// master by pointer, so an eviction costs the next cell of that shape a
// rebuild and never takes a master from under a running one.
const shapeCacheBytes = 1 << 30

// The shape caches charge an entry from its key: the chunk count times the
// post-GC heap an entry was measured to hold per chunk — the abstract DAX
// 1.65–1.75 KiB, a master (Resolved, its first materialized shape and the
// chunk positions) 0.45–0.51 KiB — plus a fixed part for the five jobs
// around the chunks and the entry itself (TestShapeCacheChargeMatchesHeap).
const (
	daxBytesPerChunk    = 1792
	masterBytesPerChunk = 512
	shapeEntryBytes     = 16 << 10
)

// At most one shape-cache lookup happens per member per cell (≈ 5k/s on
// the busiest workload), so one shard serves: the key needs no hash.
func oneShard[K any](K) uint64 { return 0 }

// entryOf returns the build-once entry resident under k in a shape cache,
// putting a fresh one on a miss. Racing first callers all Put, and each
// gets back the one entry that won, so its Once builds the shape once.
func entryOf[K comparable, E any](c *lru.Cache[K, *E], k K) *E {
	if e, ok := c.Get(k); ok {
		return e
	}
	return c.Put(k, new(E))
}

// Cache telemetry: masters built vs. cache retrievals served. The
// counters are monotone for the process lifetime (ResetPlanCache drops
// entries, not counters), so callers — the serve health endpoint and the
// warm-cache tests — difference them across operations: a request that
// increases retrievals without increasing builds ran entirely warm.
var (
	planBuilds, planRetrievals atomic.Uint64
	planShapes                 atomic.Uint64
	daxBuilds, daxRetrievals   atomic.Uint64
)

// CacheStats is a snapshot of the process-wide plan-, member-DAX- and
// chunk-seconds-cache counters.
type CacheStats struct {
	// PlanBuilds counts resolved masters constructed (cache misses).
	PlanBuilds uint64 `json:"plan_builds"`
	// PlanRetrievals counts plans served from a master (each one a
	// Clone + patch).
	PlanRetrievals uint64 `json:"plan_retrievals"`
	// PlanShapes counts executable graphs materialized under multi-site
	// masters: one per distinct stage-in placement, not one per retrieval.
	PlanShapes uint64 `json:"plan_shapes"`
	// MemberDAXBuilds and MemberDAXRetrievals are the same pair for the
	// ensemble member-DAX cache, which multi-site masters are resolved from.
	MemberDAXBuilds     uint64 `json:"member_dax_builds"`
	MemberDAXRetrievals uint64 `json:"member_dax_retrievals"`
	// PlanBytes and MemberDAXBytes are the two shape caches' current charge
	// against shapeCacheBytes each; the evictions count entries dropped to
	// stay inside it.
	PlanBytes          int64  `json:"plan_bytes"`
	PlanEvictions      uint64 `json:"plan_evictions"`
	MemberDAXBytes     int64  `json:"member_dax_bytes"`
	MemberDAXEvictions uint64 `json:"member_dax_evictions"`
	// ChunkHits, ChunkMisses and ChunkEvictions count lookups of a (workload,
	// cost model, seed, n)'s rounded chunk runtimes in the chunk-seconds
	// cache; ChunkBytes is its current charge against chunkCacheBytes.
	ChunkHits      uint64 `json:"chunk_hits"`
	ChunkMisses    uint64 `json:"chunk_misses"`
	ChunkEvictions uint64 `json:"chunk_evictions"`
	ChunkBytes     int64  `json:"chunk_bytes"`
}

// PlanCacheStats returns the current cache counters.
func PlanCacheStats() CacheStats {
	plans, daxes, chunk := multiPlanCache.Stats(), memberDAXCache.Stats(), chunkCache.Stats()
	return CacheStats{
		PlanBuilds:          planBuilds.Load(),
		PlanRetrievals:      planRetrievals.Load(),
		PlanShapes:          planShapes.Load(),
		MemberDAXBuilds:     daxBuilds.Load(),
		MemberDAXRetrievals: daxRetrievals.Load(),
		PlanBytes:           plans.Bytes,
		PlanEvictions:       plans.Evictions,
		MemberDAXBytes:      daxes.Bytes,
		MemberDAXEvictions:  daxes.Evictions,
		ChunkHits:           chunk.Hits,
		ChunkMisses:         chunk.Misses,
		ChunkEvictions:      chunk.Evictions,
		ChunkBytes:          chunk.Bytes,
	}
}

// ResetPlanCache drops every resolved master, member DAX and chunk-seconds
// entry. Tests and benchmarks use it for a cold cache. No plan or DAX key
// holds a seed, so those entry counts grow with distinct shapes, never with
// seeds, up to shapeCacheBytes; the chunk-seconds cache, whose key does hold
// one, is bounded by chunkCacheBytes.
func ResetPlanCache() {
	multiPlanCache.Clear()
	memberDAXCache.Clear()
	chunkCache.Clear()
}

// cacheable reports whether the workload carries the synthesis fingerprint
// the cache keys on. Hand-built workloads (zero Params) are planned
// directly every time.
func cacheable(w workflow.Workload) bool {
	return w.Params != (workflow.WorkloadParams{}) && len(w.Clusters) > 0
}

// roundMillis rounds x as the DAX builder's runtime profile does — "%.3f"
// formatted, then parsed back by the planner — bit for bit and without
// allocating: the digits never leave the stack buffer.
func roundMillis(x float64) float64 {
	var buf [32]byte
	// 'f' digits of a float64 always parse; there is no error to report.
	v, _ := strconv.ParseFloat(string(strconv.AppendFloat(buf[:0], x, 'f', 3, 64)), 64)
	return v
}

// chunkCacheBytes is the chunk-seconds cache's budget: 32 MiB holds the
// paper grid (n ∈ {10, 100, 300, 500}) for ≈ 4,000 seeds, or ≈ 7,900
// (seed, n) pairs at n = 500. It is a constant, not an option: an entry is
// cheap to recompute, so a working set that outgrows it degrades to the
// uncached cost and no further.
const chunkCacheBytes = 32 << 20

// chunkKey names everything a synthesized workload's rounded chunk runtimes
// depend on. Params stands for the clusters (cacheable workloads share one
// Clusters slice per Params); site, policy, clustering and failover do not
// appear because the runtimes do not depend on them — which is why the
// cells of a scenario grid that differ only on those axes share one entry.
type chunkKey struct {
	params workflow.WorkloadParams
	cost   workflow.CostModel
	seed   uint64
	n      int
}

func (k chunkKey) hash() uint64 {
	h := (k.seed+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9 ^ uint64(k.n)*0x94d049bb133111eb ^ uint64(k.params.NumClusters)
	return h ^ h>>29
}

// chunkEntryOverhead is an entry's charge beyond its floats: the key, the
// slice header, the list pointers and the map slot.
const chunkEntryOverhead = 256

// chunkCache is the one cache whose key holds a seed, and therefore the one
// that is byte-bounded: least-recently-used entries go first, and a slice
// larger than a shard's share (chunkCacheBytes/16 = 2 MiB, n ≳ 262,000) is
// not kept at all. Cached slices are shared between cells and immutable.
var chunkCache = newChunkCache(chunkCacheBytes)

func newChunkCache(maxBytes int64) *lru.Cache[chunkKey, []float64] {
	return lru.New(maxBytes, lru.DefaultShards, chunkKey.hash,
		func(_ chunkKey, v []float64) int64 { return 8*int64(len(v)) + chunkEntryOverhead })
}

// roundedChunkSeconds is the seed-dependent part of a plan: the workload's
// per-chunk runtimes under the (effective) cost model, as the DAX profiles
// carry them. For a synthesized workload the slice comes from, or goes
// into, chunkCache, so a (seed, n) pair is dealt once however many sites,
// policies or what-if documents ask for it; it is shared and the caller
// must not write it. Hand-built workloads have no fingerprint to key on and
// are computed every time.
func roundedChunkSeconds(cost workflow.CostModel, w workflow.Workload, n int) ([]float64, error) {
	keyed := cacheable(w)
	key := chunkKey{params: w.Params, cost: cost, seed: w.Seed, n: n}
	if keyed {
		if chunks, ok := chunkCache.Get(key); ok {
			return chunks, nil
		}
	}
	chunks, err := cost.ChunkSeconds(w, n)
	if err != nil {
		return nil, err
	}
	for i := range chunks {
		chunks[i] = roundMillis(chunks[i])
	}
	if keyed {
		chunkCache.Put(key, chunks)
	}
	return chunks, nil
}
