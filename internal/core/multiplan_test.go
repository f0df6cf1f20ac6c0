package core

import (
	"testing"

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
	p, err := planner.NewMulti(abstract, e.Catalogs, planner.MultiOptions{Sites: e.Sites, Policy: pol, AddStageIn: true})
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
	idx, err := p.Indexed()
	if err != nil {
		t.Fatal(err)
	}
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
	daxEntries, planEntries := memberDAXCache.Len(), multiPlanCache.Len()
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
	if d, p := memberDAXCache.Len(), multiPlanCache.Len(); d != daxEntries || p != planEntries {
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
	if got := multiPlanCache.Len(); got != 1 {
		t.Errorf("two experiments with equal catalogs hold %d masters, want 1", got)
	}
	build(func(e *EnsembleExperiment) {
		s, err := e.Catalogs.Sites.Lookup("slow")
		if err != nil {
			t.Fatal(err)
		}
		s.StageInMBps = 10
	})
	build(func(e *EnsembleExperiment) { e.Sites = []string{"slow", "fast"} })
	if got := multiPlanCache.Len(); got != 3 {
		t.Errorf("a changed bandwidth and a reordered site list give %d masters, want 3", got)
	}
	if got := memberDAXCache.Len(); got != 1 {
		t.Errorf("%d member DAXes, want the one all three masters were resolved from", got)
	}
}

// TestAllocsMemberPlanRetrieval is the allocation gate of the warm multi-site
// path (run by CI as `go test -run 'TestAllocs'`): resolving a member from
// the cache and planning it — chunk runtimes, placement, clone, patch —
// allocates the same number of objects at n = 500 and at n = 8000. Anything
// per job that creeps into the placement pass or the patch makes the two
// sizes disagree.
func TestAllocsMemberPlanRetrieval(t *testing.T) {
	ResetPlanCache()
	defer ResetPlanCache()
	measure := func(n int) float64 {
		e, err := PaperEnsemble(42, 1, n, planner.PolicyDataAware)
		if err != nil {
			t.Fatal(err)
		}
		memberPlans(t, e)
		return testing.AllocsPerRun(5, func() { memberPlans(t, e) })
	}
	small, large := measure(500), measure(8000)
	t.Logf("warm member plan: %v allocations at n=500, %v at n=8000", small, large)
	if small != large {
		t.Errorf("warm member-plan allocations grow with n: %v at n=500, %v at n=8000", small, large)
	}
	if small > 40 {
		t.Errorf("warm member plan costs %v allocations, want a few dozen at most", small)
	}
}
