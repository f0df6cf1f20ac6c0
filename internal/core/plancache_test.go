package core

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"pegflow/internal/planner"
	"pegflow/internal/workflow"
)

// uncachedExperiment returns the default experiment with the workload's
// synthesis fingerprint cleared, which forces every plan to be built from
// scratch — the pre-cache behavior, used as the reference.
func uncachedExperiment(seed uint64) *Experiment {
	e := DefaultExperiment(seed)
	w := e.Workload
	w.Params = workflow.WorkloadParams{}
	e.Workload = w
	return e
}

// TestPlanCacheByteIdentical is the cache's correctness gate: for a grid
// of seeds, platforms, chunk counts and clustering options, a run served
// by the plan cache (a patched clone of the shape master) must be
// byte-identical — full kickstart log, summary and per-task statistics —
// to a run planned from scratch.
func TestPlanCacheByteIdentical(t *testing.T) {
	ResetPlanCache()
	copts := []planner.ClusterOptions{
		{},
		{MaxTasksPerJob: 4},
		{TargetJobSeconds: 1800},
	}
	for _, seed := range []uint64{1, 42} {
		for _, p := range []string{"sandhills", "osg"} {
			for _, n := range []int{10, 100} {
				for _, co := range copts {
					cached, err := DefaultExperiment(seed).RunClustered(p, n, co)
					if err != nil {
						t.Fatal(err)
					}
					direct, err := uncachedExperiment(seed).RunClustered(p, n, co)
					if err != nil {
						t.Fatal(err)
					}
					cb, err := json.Marshal(cached)
					if err != nil {
						t.Fatal(err)
					}
					db, err := json.Marshal(direct)
					if err != nil {
						t.Fatal(err)
					}
					if string(cb) != string(db) {
						t.Errorf("seed=%d %s n=%d copts=%+v: cached run differs from uncached run", seed, p, n, co)
					}
				}
			}
		}
	}

	// The serial baseline too.
	cached, err := DefaultExperiment(42).RunSerial()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := uncachedExperiment(42).RunSerial()
	if err != nil {
		t.Fatal(err)
	}
	cb, _ := json.Marshal(cached)
	db, _ := json.Marshal(direct)
	if string(cb) != string(db) {
		t.Error("serial baseline: cached run differs from uncached run")
	}
}

// TestPlanCacheBuildsOncePerShape verifies the cache's economics: many
// retrievals across different seeds share one master per (site, n) shape.
func TestPlanCacheBuildsOncePerShape(t *testing.T) {
	ResetPlanCache()
	for seed := uint64(0); seed < 8; seed++ {
		e := DefaultExperiment(seed)
		if _, err := e.cachedWorkflowPlan("sandhills", 50, e.Workload, false); err != nil {
			t.Fatal(err)
		}
	}
	if got := planCacheLen(); got != 1 {
		t.Errorf("cache entries after 8 seeds of one shape = %d, want 1", got)
	}
	e := DefaultExperiment(0)
	if _, err := e.cachedWorkflowPlan("osg", 50, e.Workload, false); err != nil {
		t.Fatal(err)
	}
	if _, err := e.cachedWorkflowPlan("sandhills", 60, e.Workload, false); err != nil {
		t.Fatal(err)
	}
	if got := planCacheLen(); got != 3 {
		t.Errorf("cache entries after two more shapes = %d, want 3", got)
	}

	// Distinct retrievals must be independent clones, not the master.
	a, err := e.cachedWorkflowPlan("sandhills", 50, e.Workload, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.cachedWorkflowPlan("sandhills", 50, e.Workload, false)
	if err != nil {
		t.Fatal(err)
	}
	if a == b || a.Job("run_cap3_0001") == b.Job("run_cap3_0001") {
		t.Error("cache handed out shared plan state instead of clones")
	}
}

func planCacheLen() int {
	return planCache.Len()
}

// TestPlanCacheSpeedup pins the headline win: retrieving a warm cached
// plan (clone + runtime patch) must be at least 2x faster than planning
// from scratch. The real gap is an order of magnitude — the 2x floor
// leaves room for scheduler noise on tiny CI machines.
func TestPlanCacheSpeedup(t *testing.T) {
	const n = 300
	const reps = 5
	e := DefaultExperiment(42)
	eu := uncachedExperiment(42)

	// Warm both paths (cache master, memoized workload tables).
	if _, err := e.cachedWorkflowPlan("sandhills", n, e.Workload, false); err != nil {
		t.Fatal(err)
	}
	if _, err := eu.cachedWorkflowPlan("sandhills", n, eu.Workload, false); err != nil {
		t.Fatal(err)
	}

	// Best-of-5 sampling damps scheduler preemption on tiny CI machines:
	// one undisturbed trial per side suffices, and the real gap (~6x) is
	// triple the asserted floor.
	best := func(f func()) time.Duration {
		bestD := time.Duration(1<<63 - 1)
		for trial := 0; trial < 5; trial++ {
			start := time.Now()
			for i := 0; i < reps; i++ {
				f()
			}
			if d := time.Since(start); d < bestD {
				bestD = d
			}
		}
		return bestD
	}

	cachedD := best(func() {
		if _, err := e.cachedWorkflowPlan("sandhills", n, e.Workload, false); err != nil {
			t.Fatal(err)
		}
	})
	uncachedD := best(func() {
		if _, err := eu.cachedWorkflowPlan("sandhills", n, eu.Workload, false); err != nil {
			t.Fatal(err)
		}
	})

	t.Logf("warm cached retrieval: %v/plan, uncached planning: %v/plan (%.1fx)",
		cachedD/reps, uncachedD/reps, float64(uncachedD)/float64(cachedD))
	if cachedD*2 > uncachedD {
		t.Errorf("cached plan retrieval (%v) is not ≥2x faster than uncached planning (%v)",
			cachedD/reps, uncachedD/reps)
	}
}

// TestPlanCacheSharesDefaultCostModel: a zero CostModel means
// DefaultCostModel() everywhere it is used, so the two spellings must share
// one master instead of building and retaining two identical ones.
func TestPlanCacheSharesDefaultCostModel(t *testing.T) {
	ResetPlanCache()
	before := PlanCacheStats().PlanBuilds
	zero, def := DefaultExperiment(3), DefaultExperiment(3)
	zero.Cost = workflow.CostModel{}
	def.Cost = workflow.DefaultCostModel()
	for _, e := range []*Experiment{zero, def} {
		if _, err := e.cachedWorkflowPlan("osg", 40, e.Workload, false); err != nil {
			t.Fatal(err)
		}
	}
	if got := PlanCacheStats().PlanBuilds - before; got != 1 {
		t.Errorf("zero and default cost model built %d masters, want 1", got)
	}
	if got := planCacheLen(); got != 1 {
		t.Errorf("cache holds %d entries, want 1", got)
	}
}

// planSnapshot captures everything observable about a plan through its
// exported API — header, index, every Job field by value, insertion order,
// and the graph's jobs and edges — for deep-equality comparison.
func planSnapshot(t testing.TB, p *planner.Plan) map[string]any {
	t.Helper()
	idx, err := p.Indexed()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]any{
		"name":      p.Graph.Name,
		"site":      p.Site,
		"sites":     append([]string(nil), p.Sites...),
		"siteentry": p.SiteEntry, // DeepEqual compares the pointee; nil for multi-site plans
		"order":     append([]string(nil), idx.Order...),
		"indegree":  append([]int32(nil), idx.Indegree...),
	}
	var inserted []string
	for _, j := range p.Jobs() {
		inserted = append(inserted, j.ID)
	}
	out["inserted"] = inserted
	for i, id := range idx.Order {
		j := *p.JobAt(int32(i))
		j.Args = append([]string(nil), j.Args...)
		j.Tasks = append([]string(nil), j.Tasks...)
		j.Members = append([]planner.Member(nil), j.Members...)
		out["job/"+id] = j
		out["graph/"+id] = *p.Graph.Job(id).Clone()
		out["parents/"+id] = p.Graph.Parents(id)
		out["children/"+id] = p.Graph.Children(id)
	}
	return out
}

// diffSnapshots names the first key on which two plan snapshots disagree.
func diffSnapshots(a, b map[string]any) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d vs %d entries", len(a), len(b))
	}
	for k, v := range a {
		if !reflect.DeepEqual(v, b[k]) {
			return fmt.Sprintf("%s: %+v vs %+v", k, v, b[k])
		}
	}
	return ""
}

// TestCachedPlanEqualsUncachedPlan is the plan-level form of the cache's
// correctness gate: for a seed other than the one that built the master,
// the retrieved plan equals the plan built from scratch for that seed —
// every Job field, index and insertion order, edges, and the graph jobs
// (which carry no runtime profile on either side) — before and after the
// clustering pass.
func TestCachedPlanEqualsUncachedPlan(t *testing.T) {
	const n = 60
	copts := []planner.ClusterOptions{{}, {MaxTasksPerJob: 4}, {TargetJobSeconds: 1800}}
	for _, site := range []string{"sandhills", "osg"} {
		ResetPlanCache()
		builder := DefaultExperiment(7)
		if _, err := builder.cachedWorkflowPlan(site, n, builder.Workload, false); err != nil {
			t.Fatal(err)
		}
		for _, seed := range []uint64{8, 42} {
			e := DefaultExperiment(seed)
			cached, err := e.cachedWorkflowPlan(site, n, e.Workload, false)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := e.buildPlan(site, n, e.Workload, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, gj := range cached.Graph.Jobs() {
				if len(gj.Profiles) != 0 {
					t.Fatalf("%s seed %d: cached graph job %q carries profiles %v", site, seed, gj.ID, gj.Profiles)
				}
			}
			for _, co := range copts {
				cc, err := planner.Cluster(cached, co)
				if err != nil {
					t.Fatal(err)
				}
				dc, err := planner.Cluster(direct, co)
				if err != nil {
					t.Fatal(err)
				}
				if d := diffSnapshots(planSnapshot(t, dc), planSnapshot(t, cc)); d != "" {
					t.Errorf("%s seed %d copts %+v: uncached vs cached plan differ at %s", site, seed, co, d)
				}
			}
		}
		if got := planCacheLen(); got != 1 {
			t.Errorf("%s: %d masters, want the one seed 7 built", site, got)
		}
	}
}

// cachedMasters returns every master plan the cache currently holds.
func cachedMasters() []*planner.Plan {
	var out []*planner.Plan
	for i := range planCache.shards {
		sh := &planCache.shards[i]
		sh.mu.Lock()
		for _, v := range sh.m {
			out = append(out, v.(*cachedPlan).plan)
		}
		sh.mu.Unlock()
	}
	return out
}

// TestCachedMasterUnchangedByConcurrentCells replaces the graph half of
// the old deep-clone test: clones now share the master's graph, index and
// slice backing arrays, so the guarantee is that nothing a cell does —
// retrieve, patch its seed's runtimes, cluster, run — writes through to
// the master, even with eight cells at once. The same goes for the cells'
// chunk runtimes: each seed's slice is the chunk-seconds cache's, handed to
// every cell of that seed, so it is snapshotted too. CI runs this under
// -race -count=10, where a write to shared state is also a reported race.
func TestCachedMasterUnchangedByConcurrentCells(t *testing.T) {
	ResetPlanCache()
	const n = 80
	builder := DefaultExperiment(100)
	if _, err := builder.cachedWorkflowPlan("osg", n, builder.Workload, false); err != nil {
		t.Fatal(err)
	}
	masters := cachedMasters()
	if len(masters) != 1 {
		t.Fatalf("%d masters, want 1", len(masters))
	}
	before := planSnapshot(t, masters[0])

	copts := []planner.ClusterOptions{{}, {MaxTasksPerJob: 3}, {TargetJobSeconds: 1800}}
	makespans := make([]float64, 8)
	// The slices the cells are about to share, and a private copy of each.
	shared, copies := make([][]float64, len(makespans)), make([][]float64, len(makespans))
	for g := range shared {
		e := DefaultExperiment(uint64(101 + g))
		chunks, err := roundedChunkSeconds(effectiveCost(e.Cost), e.Workload, n)
		if err != nil {
			t.Fatal(err)
		}
		shared[g], copies[g] = chunks, append([]float64(nil), chunks...)
	}
	chunkStats := PlanCacheStats()
	var wg sync.WaitGroup
	for g := range makespans {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				res, err := DefaultExperiment(uint64(101+g)).RunClustered("osg", n, copts[(g+rep)%len(copts)])
				if err != nil {
					t.Error(err)
					return
				}
				if rep == 0 {
					makespans[g] = res.Summary.WallTime
				}
			}
		}(g)
	}
	wg.Wait()

	if d := diffSnapshots(before, planSnapshot(t, masters[0])); d != "" {
		t.Errorf("master changed under concurrent cells at %s", d)
	}
	if got := planCacheLen(); got != 1 {
		t.Errorf("%d masters after the cells, want 1", got)
	}
	if after := PlanCacheStats(); after.ChunkMisses != chunkStats.ChunkMisses || after.ChunkHits-chunkStats.ChunkHits != 3*uint64(len(makespans)) {
		t.Errorf("the cells did not all run on the cached chunk seconds: %+v -> %+v", chunkStats, after)
	}
	for g := range shared {
		if !sameBits(shared[g], copies[g]) {
			t.Errorf("cell %d: the shared chunk-seconds slice was written", g)
		}
	}
	// Each cell saw its own seed's runtimes, not a neighbour's patch.
	for g, got := range makespans {
		res, err := uncachedExperiment(uint64(101+g)).RunClustered("osg", n, copts[g%len(copts)])
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary.WallTime != got {
			t.Errorf("cell %d: makespan %v under concurrency, %v planned from scratch", g, got, res.Summary.WallTime)
		}
	}
}

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

// TestAllocsPlanRetrieval is the allocation gate of the warm plan path (run
// by CI as `go test -run 'TestAllocs'`): a retrieval costs the cache key,
// the plan header and one job slab — the seed's chunk runtimes are the
// chunk-seconds cache's resident slice — a constant, however many jobs the
// plan has. Anything per-job that creeps back into Clone or the patch makes
// the two sizes disagree.
func TestAllocsPlanRetrieval(t *testing.T) {
	ResetPlanCache()
	defer ResetPlanCache()
	e := DefaultExperiment(42)
	measure := func(n int) float64 {
		if _, err := e.cachedWorkflowPlan("osg", n, e.Workload, false); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := e.cachedWorkflowPlan("osg", n, e.Workload, false); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(2000), measure(20000)
	t.Logf("warm retrieval: %v allocations at n=2000, %v at n=20000", small, large)
	if small != large {
		t.Errorf("warm retrieval allocations grow with n: %v at n=2000, %v at n=20000", small, large)
	}
	if small > 8 {
		t.Errorf("warm retrieval costs %v allocations, want a handful", small)
	}
}
