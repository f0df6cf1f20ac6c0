// The keyed plan cache: every Monte Carlo / cluster / ensemble sweep cell
// used to re-plan an identical workflow from scratch — abstract DAX
// construction, catalog resolution, dependency wiring and topological
// indexing — even though the only seed-dependent part of a plan is the set
// of run_cap3 chunk runtimes (the seed drives nothing but the
// cluster→chunk assignment permutation). The cache builds one immutable
// master plan per shape key (site, n, slot counts, workload fingerprint,
// cost model) and serves each request a Plan.Clone — the master's shape
// shared, its job slab copied — with the requesting experiment's chunk
// runtimes written at the chunk jobs' recorded slab positions, reproducing
// the uncached plan byte-for-byte: the patched values are rounded exactly
// as the "%.3f" DAX runtime profiles round them.
//
// Those runtimes are the second cache in this file: they depend on the
// seed and n but not on the site, so the chunk-seconds cache keeps each
// (workload, cost model, seed, n)'s rounded slice in a byte-bounded LRU
// that both run paths read through roundedChunkSeconds.

package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"sync"
	"sync/atomic"

	"pegflow/internal/dax"
	"pegflow/internal/lru"
	"pegflow/internal/planner"
	"pegflow/internal/workflow"
)

// cacheShards spreads the plan and member-DAX caches across independently
// locked shards, selected by a fingerprint hash of the key, so concurrent
// mixed-document traffic (the serve tier's steady state) does not contend
// on one map's lock.
const cacheShards = 16

// shardedMap is a fixed-size array of mutex-guarded maps; callers route
// each key to a shard with a hash they compute from the key's identity
// fields. A plain mutex+map beats sync.Map here: LoadOrStore is the only
// hot operation, each call is one short critical section with no
// per-entry wrapper allocation, and the guarded state is visible to the
// guardfield analyzer. Heavy lifting (plan construction) happens outside
// the lock via the cached entry's sync.Once.
type shardedMap struct {
	shards [cacheShards]mapShard
}

// mapShard is one independently locked slice of a shardedMap.
type mapShard struct {
	mu sync.Mutex
	//pegflow:guarded mu
	m map[any]any
}

// LoadOrStore returns the value stored under key, or stores and returns
// val if the key was absent. The bool reports whether the value was
// already present.
func (m *shardedMap) LoadOrStore(hash uint64, key, val any) (any, bool) {
	sh := &m.shards[hash%cacheShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if v, ok := sh.m[key]; ok {
		return v, true
	}
	if sh.m == nil {
		sh.m = make(map[any]any)
	}
	sh.m[key] = val
	return val, false
}

// Len counts entries across all shards (cache introspection; the
// warm-cache tests assert entry counts with it).
func (m *shardedMap) Len() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// Clear drops every entry from every shard.
func (m *shardedMap) Clear() {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		sh.m = nil
		sh.mu.Unlock()
	}
}

// hashFields is FNV-1a over a mix of strings and integers — the shard
// selector for cache keys.
func hashFields(strs []string, ints []uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, s := range strs {
		io.WriteString(h, s)
		h.Write([]byte{0}) // separator: ("ab","c") != ("a","bc")
	}
	for _, v := range ints {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// planKey is the shape fingerprint of a cacheable plan. It deliberately
// excludes the workload seed: seeds only change chunk runtimes, which are
// patched per retrieval.
type planKey struct {
	site                     string
	n                        int
	serial                   bool
	sandhillsSlots, osgSlots int
	params                   workflow.WorkloadParams
	name                     string
	totalTranscripts         int
	transcriptBytes          int64
	alignmentBytes           int64
	cost                     workflow.CostModel
}

// cachedPlan is one cache entry; the master plan is built once under the
// sync.Once and never mutated afterwards.
type cachedPlan struct {
	once sync.Once
	plan *planner.Plan
	// chunkPos lists the run_cap3 jobs' index positions in chunk order, so
	// retrieval patches the clone's slab without a lookup per job.
	chunkPos []int32
	err      error
}

// hash picks the key's cache shard from its cheap identity fields; the
// full struct key still guarantees exactness inside the shard.
func (k planKey) hash() uint64 {
	serial := uint64(0)
	if k.serial {
		serial = 1
	}
	return hashFields(
		[]string{k.site, k.name},
		[]uint64{uint64(k.n), serial, uint64(k.sandhillsSlots), uint64(k.osgSlots)},
	)
}

var planCache shardedMap // planKey -> *cachedPlan

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
	// PlanBuilds counts masters constructed (cache misses): single-site
	// master plans and multi-site resolved masters alike.
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
	chunk := chunkCache.Stats()
	return CacheStats{
		PlanBuilds:          planBuilds.Load(),
		PlanRetrievals:      planRetrievals.Load(),
		PlanShapes:          planShapes.Load(),
		MemberDAXBuilds:     daxBuilds.Load(),
		MemberDAXRetrievals: daxRetrievals.Load(),
		ChunkHits:           chunk.Hits,
		ChunkMisses:         chunk.Misses,
		ChunkEvictions:      chunk.Evictions,
		ChunkBytes:          chunk.Bytes,
	}
}

// ResetPlanCache drops every cached plan, resolved multi-site master,
// member DAX and chunk-seconds entry. Tests and benchmarks use it for a cold
// cache. No plan or DAX key holds a seed, so those entry counts grow with
// distinct shapes, never with seeds; the chunk-seconds cache, whose key does
// hold one, is bounded by chunkCacheBytes instead.
func ResetPlanCache() {
	planCache.Clear()
	multiPlanCache.Clear()
	memberDAXCache.Clear()
	chunkCache.Clear()
}

// effectiveCost mirrors BuildDAX's zero-value defaulting so the cache key
// and the patch step use the cost model the builder actually applied (a
// zero CostModel and DefaultCostModel() share one master).
func effectiveCost(c workflow.CostModel) workflow.CostModel {
	if c == (workflow.CostModel{}) {
		return workflow.DefaultCostModel()
	}
	return c
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

// cachedWorkflowPlan returns an executable plan for the workload on the
// named site with n chunks (or the serial baseline when serial is set),
// cloned from the cached master when the workload is cacheable and built
// directly otherwise. The returned plan's jobs are private to the caller;
// its graph and index are the master's and must not be edited.
func (e *Experiment) cachedWorkflowPlan(site string, n int, w workflow.Workload, serial bool) (*planner.Plan, error) {
	if !cacheable(w) {
		return e.buildPlan(site, n, w, serial)
	}
	key := planKey{
		site:             site,
		n:                n,
		serial:           serial,
		sandhillsSlots:   e.SandhillsSlots,
		osgSlots:         e.OSGSlots,
		params:           w.Params,
		name:             w.Name,
		totalTranscripts: w.TotalTranscripts,
		transcriptBytes:  w.TranscriptBytes,
		alignmentBytes:   w.AlignmentBytes,
		cost:             effectiveCost(e.Cost),
	}
	v, _ := planCache.LoadOrStore(key.hash(), key, &cachedPlan{})
	entry := v.(*cachedPlan)
	entry.once.Do(func() {
		planBuilds.Add(1)
		entry.plan, entry.err = e.buildPlan(site, n, w, serial)
		if entry.err != nil || serial {
			return
		}
		idx, err := entry.plan.Indexed()
		if err != nil {
			entry.err = err
			return
		}
		entry.chunkPos = make([]int32, n)
		for i := range entry.chunkPos {
			pos, ok := idx.ByID[workflow.ChunkJobID(i)]
			if !ok {
				entry.err = fmt.Errorf("core: plan cache: job %q missing from cached plan", workflow.ChunkJobID(i))
				return
			}
			entry.chunkPos[i] = pos
		}
	})
	if entry.err != nil {
		return nil, entry.err
	}
	planRetrievals.Add(1)
	plan := entry.plan.Clone()
	if serial {
		// The serial baseline's single runtime sums every cluster — fully
		// seed-independent, nothing to patch.
		return plan, nil
	}
	// Patch the seed-dependent chunk runtimes, so the clone equals an
	// uncached plan for this seed. The master's graph jobs carry no runtime
	// profile (planner.New copies none), so there is nothing else to sync.
	chunks, err := roundedChunkSeconds(key.cost, w, n)
	if err != nil {
		return nil, err
	}
	plan.SetExecSeconds(entry.chunkPos, chunks)
	return plan, nil
}

// buildPlan is the uncached planning path: abstract DAX, paper catalogs,
// single-site planning — exactly what every sweep cell used to run.
func (e *Experiment) buildPlan(site string, n int, w workflow.Workload, serial bool) (*planner.Plan, error) {
	cats, err := workflow.PaperCatalogs(w, e.SandhillsSlots, e.OSGSlots)
	if err != nil {
		return nil, err
	}
	var abstract *dax.Workflow
	if serial {
		abstract, err = workflow.BuildSerialDAX(w, e.Cost)
	} else {
		abstract, err = workflow.BuildDAX(workflow.BuilderConfig{N: n, Workload: w, Cost: e.Cost})
	}
	if err != nil {
		return nil, err
	}
	return planner.New(abstract, cats, planner.Options{Site: site})
}
