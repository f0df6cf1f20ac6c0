package core

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"pegflow/internal/ensemble"
	"pegflow/internal/planner"
	"pegflow/internal/workflow"
)

// ensembleFixtures are the two multi-site worlds of the equality tests: the
// paper's pair, where every policy sends the chunks one way, and the hetero
// bench pair, where the cost policies split them by runtime.
var ensembleFixtures = []struct {
	name  string
	build func(seed uint64, workflows, n int, policy string) (*EnsembleExperiment, error)
}{
	{"paper", PaperEnsemble},
	{"hetero", HeteroBenchEnsemble},
}

// memberPlans plans the experiment's members through the cache.
func memberPlans(t testing.TB, e *EnsembleExperiment) []ensemble.Spec {
	t.Helper()
	specs, err := e.plan()
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// singleSite is what Experiment.RunClustered runs: the experiment's workload
// with n chunks as an ensemble of one on the named paper platform.
func singleSite(t testing.TB, e *Experiment, site string, n int, copts planner.ClusterOptions) *EnsembleExperiment {
	t.Helper()
	world, err := paperWorld()
	if err != nil {
		t.Fatal(err)
	}
	return e.onSite(world, site, n, e.Workload, copts)
}

// singleSitePlan is the one member plan of singleSite.
func singleSitePlan(t testing.TB, e *Experiment, site string, n int, copts planner.ClusterOptions) *planner.Plan {
	t.Helper()
	return memberPlans(t, singleSite(t, e, site, n, copts))[0].Plan
}

// uncachedExperiment returns the default experiment with the workload's
// synthesis fingerprint cleared, which forces every plan to be resolved
// from the workload's own DAX — no cached master, no runtime patch — the
// reference the cached runs are compared with.
func uncachedExperiment(seed uint64) *Experiment {
	e := DefaultExperiment(seed)
	w := e.Workload
	w.Params = workflow.WorkloadParams{}
	e.Workload = w
	return e
}

// planSnapshot captures everything observable about a plan through its
// exported API — header, index, every Job field by value, insertion order,
// and the graph's jobs and edges — for deep-equality comparison.
func planSnapshot(t testing.TB, p *planner.Plan) map[string]any {
	t.Helper()
	idx := p.Indexed()
	out := map[string]any{
		"name":     p.Graph().Name,
		"site":     p.Site,
		"sites":    append([]string(nil), p.Sites...),
		"order":    append([]string(nil), idx.Order...),
		"indegree": append([]int32(nil), idx.Indegree...),
	}
	var inserted []string
	for _, j := range p.Jobs() {
		inserted = append(inserted, j.ID)
	}
	out["inserted"] = inserted
	for i, id := range idx.Order {
		j := *p.JobAt(int32(i))
		j.Args = append([]string(nil), j.Args...)
		j.Members = append([]planner.Member(nil), j.Members...)
		out["job/"+id] = j
		out["graph/"+id] = *p.Graph().Job(id).Clone()
		out["parents/"+id] = p.Graph().Parents(id)
		out["children/"+id] = p.Graph().Children(id)
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

// uncachedMemberPlan is the reference: member i's own BuildDAX, planned from
// scratch — what every cell ran before the multi-site cache.
func uncachedMemberPlan(t testing.TB, e *EnsembleExperiment, i int) *planner.Plan {
	t.Helper()
	abstract, err := workflow.BuildDAX(workflow.BuilderConfig{N: e.N, Workload: e.memberWorkload(i)})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := planner.NewPolicy(e.Policy)
	if err != nil {
		t.Fatal(err)
	}
	p, err := planner.NewMulti(abstract, e.World.Catalogs(), planner.MultiOptions{Sites: e.Sites, Policy: pol, AddStageIn: true})
	if err != nil {
		t.Fatal(err)
	}
	if p, err = planner.Cluster(p, e.Cluster); err != nil {
		t.Fatal(err)
	}
	return p
}

// siteVector is where the plan's jobs run, in index order.
func siteVector(t testing.TB, p *planner.Plan) []string {
	t.Helper()
	idx := p.Indexed()
	out := make([]string, len(idx.Order))
	for i := range out {
		out[i] = p.JobAt(int32(i)).Site
	}
	return out
}

// TestCachedMemberPlanEqualsUncachedPlan generalises
// TestCachedPlanEqualsUncachedPlan to the multi-site path: whichever seed
// resolved the master, a member plan served from it equals
// NewMulti(BuildDAX(member)) (+ Cluster) — job slab, index and insertion
// order, edges, graph and stage-in jobs — under every policy and clustering
// mode. The policies place the stage-in consumers differently and share one
// master, so a shape memo keyed by anything less than the stage-in signature
// hands some policy another's graph and fails here; on the hetero fixture the
// seeds place the chunks differently, so a patch that missed a placement
// field fails here too.
func TestCachedMemberPlanEqualsUncachedPlan(t *testing.T) {
	const n, workflows = 40, 2
	copts := []planner.ClusterOptions{{}, {TargetJobSeconds: 1800}, {MaxTasksPerJob: 4}}
	for _, fx := range ensembleFixtures {
		ResetPlanCache()
		before := PlanCacheStats()
		placements := map[string]bool{}
		for _, policy := range planner.PolicyNames() {
			for _, co := range copts {
				for seed := uint64(11); seed < 17; seed++ {
					e, err := fx.build(seed, workflows, n, policy)
					if err != nil {
						t.Fatal(err)
					}
					e.Cluster = co
					for i, spec := range memberPlans(t, e) {
						want := uncachedMemberPlan(t, e, i)
						if d := diffSnapshots(planSnapshot(t, want), planSnapshot(t, spec.Plan)); d != "" {
							t.Fatalf("%s %s %+v seed %d member %d: uncached vs cached plan differ at %s",
								fx.name, policy, co, seed, i, d)
						}
						if !co.Enabled() && policy == planner.PolicyRuntimeAware {
							placements[fmtSites(siteVector(t, spec.Plan))] = true
						}
					}
				}
			}
		}
		after := PlanCacheStats()
		if got := after.PlanBuilds - before.PlanBuilds; got != 1 {
			t.Errorf("%s: %d masters resolved, want 1 for the one shape", fx.name, got)
		}
		if got := after.PlanShapes - before.PlanShapes; got < 2 {
			t.Errorf("%s: %d graphs materialized: the policies no longer place the stage-in consumers differently, so the signature memo is not exercised", fx.name, got)
		}
		if fx.name == "hetero" && len(placements) < 2 {
			t.Errorf("hetero: every seed got the same site vector: the per-seed placement patch is not exercised")
		}
	}
}

func fmtSites(sites []string) string {
	var b []byte
	for _, s := range sites {
		b = append(append(b, s...), ',')
	}
	return string(b)
}

// TestMultiPlanCacheHoldsNoSeed: the gain does not depend on repeated seeds,
// and a long-lived process does not grow with them. After one warm-up cell,
// 64 seeds never seen before build no DAX, resolve no master, materialize no
// graph and add no cache entry.
func TestMultiPlanCacheHoldsNoSeed(t *testing.T) {
	ResetPlanCache()
	plan := func(seed uint64) {
		e, err := HeteroBenchEnsemble(seed, 2, 30, planner.PolicyDataAware)
		if err != nil {
			t.Fatal(err)
		}
		memberPlans(t, e)
	}
	start := PlanCacheStats()
	plan(1)
	warm := PlanCacheStats()
	if got := warm.PlanBuilds - start.PlanBuilds; got != 1 {
		t.Errorf("warm-up cell resolved %d masters, want 1", got)
	}
	if got := warm.MemberDAXBuilds - start.MemberDAXBuilds; got != 1 {
		t.Errorf("warm-up cell built %d member DAXes, want 1", got)
	}
	daxEntries, planEntries := memberDAXCache.Stats().Entries, multiPlanCache.Stats().Entries
	if daxEntries != 1 || planEntries != 1 {
		t.Errorf("after the warm-up cell: %d DAX and %d multi-plan entries, want 1 and 1", daxEntries, planEntries)
	}

	for seed := uint64(1000); seed < 1064; seed++ {
		plan(seed)
	}
	end := PlanCacheStats()
	if got := end.MemberDAXBuilds - warm.MemberDAXBuilds; got != 0 {
		t.Errorf("64 new seeds built %d member DAXes, want 0", got)
	}
	if got := end.PlanBuilds - warm.PlanBuilds; got != 0 {
		t.Errorf("64 new seeds resolved %d masters, want 0", got)
	}
	if got := end.PlanShapes - warm.PlanShapes; got != 0 {
		t.Errorf("64 new seeds materialized %d graphs, want 0", got)
	}
	if got := end.PlanRetrievals - warm.PlanRetrievals; got != 64*2 {
		t.Errorf("64 two-member cells retrieved %d plans, want 128", got)
	}
	if d, p := memberDAXCache.Stats().Entries, multiPlanCache.Stats().Entries; d != daxEntries || p != planEntries {
		t.Errorf("cache entries grew with seeds: DAX %d → %d, multi-plan %d → %d", daxEntries, d, planEntries, p)
	}
}

// TestMultiPlanCacheKeysOnCatalogContent: every scenario compile builds fresh
// catalogs, so equal contents must share a master, and a catalog field
// planning reads must split it.
func TestMultiPlanCacheKeysOnCatalogContent(t *testing.T) {
	ResetPlanCache()
	build := func(edit func(*EnsembleExperiment)) {
		e, err := HeteroBenchEnsemble(5, 1, 20, planner.PolicyDataAware)
		if err != nil {
			t.Fatal(err)
		}
		if edit != nil {
			edit(e)
		}
		memberPlans(t, e)
	}
	build(nil)
	build(nil) // fresh catalogs, same content
	if got := multiPlanCache.Stats().Entries; got != 1 {
		t.Errorf("two experiments with equal catalogs hold %d masters, want 1", got)
	}
	build(func(e *EnsembleExperiment) {
		// Before the world's first Key, which fingerprints the edit.
		s, err := e.World.Catalogs().Sites.Lookup("slow")
		if err != nil {
			t.Fatal(err)
		}
		s.StageInMBps = 10
	})
	build(func(e *EnsembleExperiment) { e.Sites = []string{"slow", "fast"} })
	if got := multiPlanCache.Stats().Entries; got != 3 {
		t.Errorf("a changed bandwidth and a reordered site list give %d masters, want 3", got)
	}
	if got := memberDAXCache.Stats().Entries; got != 1 {
		t.Errorf("%d member DAXes, want the one all three masters were resolved from", got)
	}
}

// checkWarmPlanAllocs is the allocation gate of the warm plan path (run by CI
// as `go test -run 'TestAllocs'`): resolving a member from the cache and
// planning it — chunk runtimes, placement, clone, patch — allocates the same
// number of objects at both sizes, and no more than limit. Anything per job
// that creeps into the placement pass or the patch makes the sizes disagree.
func checkWarmPlanAllocs(t *testing.T, build func(n int) *EnsembleExperiment, small, large int, limit float64) {
	ResetPlanCache()
	defer ResetPlanCache()
	measure := func(n int) float64 {
		e := build(n)
		memberPlans(t, e)
		return testing.AllocsPerRun(5, func() { memberPlans(t, e) })
	}
	atSmall, atLarge := measure(small), measure(large)
	t.Logf("warm member plan: %v allocations at n=%d, %v at n=%d", atSmall, small, atLarge, large)
	if atSmall != atLarge {
		t.Errorf("warm member-plan allocations grow with n: %v at n=%d, %v at n=%d", atSmall, small, atLarge, large)
	}
	if atSmall > limit {
		t.Errorf("warm member plan costs %v allocations, want at most %v", atSmall, limit)
	}
}

// TestAllocsMemberPlanRetrieval: a two-site member under a cost policy.
func TestAllocsMemberPlanRetrieval(t *testing.T) {
	checkWarmPlanAllocs(t, func(n int) *EnsembleExperiment {
		e, err := PaperEnsemble(42, 1, n, planner.PolicyDataAware)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}, 500, 8000, 40)
}

// TestAllocsPlanRetrieval: the one-site member every single-site run plans.
func TestAllocsPlanRetrieval(t *testing.T) {
	e := DefaultExperiment(42)
	checkWarmPlanAllocs(t, func(n int) *EnsembleExperiment {
		return singleSite(t, e, "osg", n, planner.ClusterOptions{})
	}, 2000, 20000, 8)
}

// TestPlanCacheByteIdentical is the cache's end-to-end correctness gate on
// single-site runs: for a grid of seeds, platforms, chunk counts and
// clustering options, a run served by the plan cache (a patched clone of the
// shape's master) must be byte-identical — full kickstart log, summary and
// per-task statistics — to a run resolved from its own DAX.
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
}

// TestPlanCacheBuildsOncePerShape is TestMultiPlanCacheHoldsNoSeed for the
// one-site members: many retrievals across different seeds share one master
// per (site, n) shape, and each retrieval is its own clone.
func TestPlanCacheBuildsOncePerShape(t *testing.T) {
	ResetPlanCache()
	none := planner.ClusterOptions{}
	for seed := uint64(0); seed < 8; seed++ {
		singleSitePlan(t, DefaultExperiment(seed), "sandhills", 50, none)
	}
	if got := multiPlanCache.Stats().Entries; got != 1 {
		t.Errorf("cache entries after 8 seeds of one shape = %d, want 1", got)
	}
	e := DefaultExperiment(0)
	singleSitePlan(t, e, "osg", 50, none)
	singleSitePlan(t, e, "sandhills", 60, none)
	if got := multiPlanCache.Stats().Entries; got != 3 {
		t.Errorf("cache entries after two more shapes = %d, want 3", got)
	}
	if got := memberDAXCache.Stats().Entries; got != 2 {
		t.Errorf("%d member DAXes, want one per n", got)
	}

	// Distinct retrievals must be independent clones, not the master.
	a, b := singleSitePlan(t, e, "sandhills", 50, none), singleSitePlan(t, e, "sandhills", 50, none)
	if a == b || a.Job("run_cap3_0001") == b.Job("run_cap3_0001") {
		t.Error("cache handed out shared plan state instead of clones")
	}
}

// TestPlanCacheSpeedup pins the headline win: retrieving a warm cached
// plan (placement + clone + runtime patch) must be at least 2x faster than
// resolving it from scratch. The real gap is an order of magnitude — the 2x
// floor leaves room for scheduler noise on tiny CI machines.
func TestPlanCacheSpeedup(t *testing.T) {
	const n = 300
	const reps = 5
	none := planner.ClusterOptions{}
	e, eu := DefaultExperiment(42), uncachedExperiment(42)

	// Warm both paths (cache master, memoized workload tables).
	singleSitePlan(t, e, "sandhills", n, none)
	singleSitePlan(t, eu, "sandhills", n, none)

	// Best-of-5 sampling damps scheduler preemption on tiny CI machines:
	// one undisturbed trial per side suffices.
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
	cachedD := best(func() { singleSitePlan(t, e, "sandhills", n, none) })
	uncachedD := best(func() { singleSitePlan(t, eu, "sandhills", n, none) })

	t.Logf("warm cached retrieval: %v/plan, uncached planning: %v/plan (%.1fx)",
		cachedD/reps, uncachedD/reps, float64(uncachedD)/float64(cachedD))
	if cachedD*2 > uncachedD {
		t.Errorf("cached plan retrieval (%v) is not ≥2x faster than uncached planning (%v)",
			cachedD/reps, uncachedD/reps)
	}
}

// singleSiteReference is the pipeline single-site runs had to themselves
// before they became ensembles of one, kept here as the reference: the
// seed's own DAX, the paper's catalogs, planner.New from scratch (itself
// pinned against the deleted single-site builder by the planner's
// TestNewEqualsReferenceBuilder), then the clustering pass.
func singleSiteReference(t testing.TB, e *Experiment, site string, n int, copts planner.ClusterOptions) *planner.Plan {
	t.Helper()
	cats, err := workflow.PaperCatalogs(e.Workload, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	abstract, err := workflow.BuildDAX(workflow.BuilderConfig{N: n, Workload: e.Workload})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planner.New(abstract, cats, planner.Options{Site: site})
	if err != nil {
		t.Fatal(err)
	}
	if plan, err = planner.Cluster(plan, copts); err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestCachedPlanEqualsUncachedPlan: on every paper platform, for seeds other
// than the one that resolved the master and under every clustering mode,
// the one-site member plan equals what planner.New builds from that seed's
// own DAX — the labels, every Job field, index and insertion order, edges,
// and the graph jobs (which carry no runtime profile on either side).
func TestCachedPlanEqualsUncachedPlan(t *testing.T) {
	const n = 60
	copts := []planner.ClusterOptions{{}, {MaxTasksPerJob: 4}, {TargetJobSeconds: 1800}}
	for _, site := range ExtendedPlatforms {
		ResetPlanCache()
		singleSitePlan(t, DefaultExperiment(7), site, n, planner.ClusterOptions{})
		for _, seed := range []uint64{8, 42} {
			e := DefaultExperiment(seed)
			for _, co := range copts {
				cached := singleSitePlan(t, e, site, n, co)
				for _, gj := range cached.Graph().Jobs() {
					if !co.Enabled() && len(gj.Profiles) != 0 {
						t.Fatalf("%s seed %d: cached graph job %q carries profiles %v", site, seed, gj.ID, gj.Profiles)
					}
				}
				if d := diffSnapshots(planSnapshot(t, singleSiteReference(t, e, site, n, co)), planSnapshot(t, cached)); d != "" {
					t.Errorf("%s seed %d copts %+v: planner.New vs one-site member plan differ at %s", site, seed, co, d)
				}
				if cached.Site != site || !reflect.DeepEqual(cached.Sites, []string{site}) {
					t.Errorf("%s seed %d: member plan is labelled site %q, sites %v", site, seed, cached.Site, cached.Sites)
				}
			}
		}
		if got := multiPlanCache.Stats().Entries; got != 1 {
			t.Errorf("%s: %d masters, want the one seed 7 resolved", site, got)
		}
	}
}

// TestCachedMasterUnchangedByConcurrentCells: member plans share their
// master's graph, index and slice backing arrays, so the guarantee is that
// nothing a cell does — retrieve, patch its seed's runtimes, cluster, run —
// writes through to the master, even with eight cells at once: a reference
// member planned from the master before the cells equals the same member
// planned after them. The same goes for the cells' chunk runtimes: each
// seed's slice is the chunk-seconds cache's, handed to every cell of that
// seed, so it is snapshotted too. CI runs this under -race -count=10, where
// a write to shared state is also a reported race.
func TestCachedMasterUnchangedByConcurrentCells(t *testing.T) {
	ResetPlanCache()
	const n = 80
	builder := DefaultExperiment(100)
	before := planSnapshot(t, singleSitePlan(t, builder, "osg", n, planner.ClusterOptions{}))
	if got := multiPlanCache.Stats().Entries; got != 1 {
		t.Fatalf("%d masters, want 1", got)
	}

	copts := []planner.ClusterOptions{{}, {MaxTasksPerJob: 3}, {TargetJobSeconds: 1800}}
	makespans := make([]float64, 8)
	// The slices the cells are about to share, and a private copy of each.
	shared, copies := make([][]float64, len(makespans)), make([][]float64, len(makespans))
	for g := range shared {
		e := DefaultExperiment(uint64(101 + g))
		chunks, err := roundedChunkSeconds(workflow.DefaultCostModel(), e.Workload, n)
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

	if after := PlanCacheStats(); after.ChunkMisses != chunkStats.ChunkMisses || after.ChunkHits-chunkStats.ChunkHits != 3*uint64(len(makespans)) {
		t.Errorf("the cells did not all run on the cached chunk seconds: %+v -> %+v", chunkStats, after)
	}
	if d := diffSnapshots(before, planSnapshot(t, singleSitePlan(t, builder, "osg", n, planner.ClusterOptions{}))); d != "" {
		t.Errorf("master changed under concurrent cells at %s", d)
	}
	if got := multiPlanCache.Stats().Entries; got != 1 {
		t.Errorf("%d masters after the cells, want 1", got)
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
