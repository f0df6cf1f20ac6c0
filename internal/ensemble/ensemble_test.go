package ensemble

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"pegflow/internal/catalog"
	"pegflow/internal/dax"
	"pegflow/internal/engine"
	"pegflow/internal/planner"
	"pegflow/internal/sim/platform"
)

// testCatalogs builds a two-site world: "alpha" has everything
// preinstalled, "beta" installs per job.
func testCatalogs(t *testing.T) planner.Catalogs {
	t.Helper()
	sc := catalog.NewSiteCatalog()
	for _, s := range []*catalog.Site{
		{Name: "alpha", Slots: 8, SpeedFactor: 1.0, SharedSoftware: true, StageInMBps: 100},
		{Name: "beta", Slots: 8, SpeedFactor: 1.5, Heterogeneous: true, StageInMBps: 20},
	} {
		if err := sc.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	tc := catalog.NewTransformationCatalog()
	for _, tr := range []string{"split", "run_cap3", "merge"} {
		if err := tc.Add(&catalog.Transformation{Name: tr, Site: "alpha", PFN: "/opt/" + tr, Installed: true}); err != nil {
			t.Fatal(err)
		}
		if err := tc.Add(&catalog.Transformation{Name: tr, Site: "beta", PFN: tr + ".tar.gz", InstallBytes: 10 << 20}); err != nil {
			t.Fatal(err)
		}
	}
	return planner.Catalogs{Sites: sc, Transformations: tc, Replicas: catalog.NewReplicaCatalog()}
}

func fanDAX(t *testing.T, name string, width int, runtime float64) *dax.Workflow {
	t.Helper()
	w := dax.New(name)
	w.NewJob("split", "split").AddOutput("chunks", 1000).
		SetProfile("pegasus", "runtime", "5")
	for i := 0; i < width; i++ {
		id := fmt.Sprintf("cap3_%03d", i)
		w.NewJob(id, "run_cap3").AddInput("chunks", 1000).
			AddOutput(fmt.Sprintf("j%03d", i), 100).
			SetProfile("pegasus", "runtime", fmt.Sprintf("%.1f", runtime))
		if err := w.AddDependency("split", id); err != nil {
			t.Fatal(err)
		}
	}
	w.NewJob("merge", "merge").SetProfile("pegasus", "runtime", "3")
	for i := 0; i < width; i++ {
		w.Job("merge").AddInput(fmt.Sprintf("j%03d", i), 100)
		if err := w.AddDependency(fmt.Sprintf("cap3_%03d", i), "merge"); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func testConfigs(seed uint64) []platform.Config {
	return []platform.Config{
		{
			Name: "alpha", Slots: 8, SubmitInterval: 0.1,
			DispatchMean: 2, DispatchCV: 0.3, SpeedFactor: 1.0, SpeedJitter: 0.05,
			Seed: seed,
		},
		{
			Name: "beta", Slots: 8, SubmitInterval: 0.2,
			DispatchMean: 10, DispatchCV: 0.8, SpeedFactor: 1.5, SpeedJitter: 0.3,
			SetupMean: 8, SetupCV: 0.4, SetupBytesPerSec: 10e6,
			EvictionRate: 1e-4,
			Seed:         seed,
		},
	}
}

func testSources(t *testing.T, n int) []WorkflowSource {
	t.Helper()
	srcs := make([]WorkflowSource, n)
	for i := range srcs {
		srcs[i] = WorkflowSource{
			Name:       fmt.Sprintf("wf%02d", i),
			Abstract:   fanDAX(t, fmt.Sprintf("wf%02d", i), 6+i%3, 20+float64(i)),
			Priority:   n - i,
			RetryLimit: 5,
		}
	}
	return srcs
}

func runEnsemble(t *testing.T, seed uint64, workers, maxInFlight int, policy string) (*Result, []Spec) {
	t.Helper()
	cats := testCatalogs(t)
	specs, err := PlanAll(testSources(t, 8), cats, PlanOptions{Sites: []string{"alpha", "beta"}, Policy: policy, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := platform.NewMultiExecutor(testConfigs(seed))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(pool, specs, Options{MaxInFlight: maxInFlight})
	if err != nil {
		t.Fatal(err)
	}
	return res, specs
}

// Acceptance: an ensemble of 8 workflows across 2 sites is deterministic
// for a fixed seed — byte-identical JSON stats across repeated runs and
// across planning worker counts.
func TestEnsembleDeterministic(t *testing.T) {
	for _, policy := range planner.PolicyNames() {
		var first []byte
		for run, workers := range []int{1, 4, 8} {
			res, _ := runEnsemble(t, 42, workers, 24, policy)
			var buf bytes.Buffer
			if err := res.Report(policy).WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			if run == 0 {
				first = buf.Bytes()
				continue
			}
			if !bytes.Equal(first, buf.Bytes()) {
				t.Fatalf("policy %s: run with %d workers differs from first run:\n%s\n---\n%s",
					policy, workers, first, buf.Bytes())
			}
		}
	}
}

func TestEnsembleCompletesAllWorkflows(t *testing.T) {
	res, specs := runEnsemble(t, 7, 0, 0, planner.PolicyDataAware)
	if len(res.Workflows) != len(specs) {
		t.Fatalf("got %d workflow results, want %d", len(res.Workflows), len(specs))
	}
	for i, w := range res.Workflows {
		if !w.Result.Success {
			t.Errorf("workflow %s incomplete: unfinished %v", w.Name, w.Result.Unfinished)
		}
		want := specs[i].Plan.Graph().Len()
		if got := len(w.Result.Completed) + len(w.Result.Unfinished); got != want {
			t.Errorf("workflow %s: completed+unfinished = %d, want %d jobs", w.Name, got, want)
		}
		if w.Result.Makespan > res.Makespan {
			t.Errorf("workflow %s makespan %v exceeds ensemble makespan %v",
				w.Name, w.Result.Makespan, res.Makespan)
		}
	}
	if len(res.Sites) != 2 {
		t.Fatalf("sites = %d, want 2", len(res.Sites))
	}
	for _, s := range res.Sites {
		if s.BusySlotSeconds <= 0 {
			t.Errorf("site %s: no recorded occupancy", s.Site)
		}
		if s.CapacitySlotSeconds < s.BusySlotSeconds {
			t.Errorf("site %s: busy %v exceeds capacity integral %v",
				s.Site, s.BusySlotSeconds, s.CapacitySlotSeconds)
		}
	}
}

// The global throttle bounds concurrently busy slots across the pool.
func TestEnsembleGlobalThrottle(t *testing.T) {
	const cap = 3
	res, _ := runEnsemble(t, 11, 1, cap, planner.PolicyRoundRobin)
	for _, s := range res.Sites {
		// Per-site maxima are reached at different times, so only each
		// individual site is bounded by the global in-flight cap.
		if s.MaxBusySlots > cap {
			t.Errorf("site %s max busy slots = %d, want <= %d", s.Site, s.MaxBusySlots, cap)
		}
	}
	throttled := res.Makespan
	free, _ := runEnsemble(t, 11, 1, 0, planner.PolicyRoundRobin)
	if throttled <= free.Makespan {
		t.Errorf("throttled makespan %v not larger than unthrottled %v", throttled, free.Makespan)
	}
}

// Under a tight throttle, the higher-priority member's held jobs release
// first, so it finishes no later than an identical low-priority member.
func TestEnsemblePriorityOrdering(t *testing.T) {
	cats := testCatalogs(t)
	srcs := []WorkflowSource{
		{Name: "low", Abstract: fanDAX(t, "low", 8, 30), Priority: 1, RetryLimit: 5},
		{Name: "high", Abstract: fanDAX(t, "high", 8, 30), Priority: 10, RetryLimit: 5},
	}
	specs, err := PlanAll(srcs, cats, PlanOptions{Sites: []string{"alpha"}, Policy: planner.PolicyRoundRobin, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := platform.NewMultiExecutor(testConfigs(3)[:1])
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(pool, specs, Options{MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	low, high := res.Workflows[0].Result.Makespan, res.Workflows[1].Result.Makespan
	if high > low {
		t.Errorf("high-priority makespan %v exceeds low-priority %v", high, low)
	}
}

func TestEnsembleRejectsBadSpecs(t *testing.T) {
	cats := testCatalogs(t)
	specs, err := PlanAll(testSources(t, 2), cats, PlanOptions{Sites: []string{"alpha"}, Policy: planner.PolicyRoundRobin, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := platform.NewMultiExecutor(testConfigs(1)[:1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(pool, nil, Options{}); err == nil {
		t.Error("no error for empty ensemble")
	}
	dup := []Spec{specs[0], {Name: specs[0].Name, Plan: specs[1].Plan}}
	if _, err := Run(pool, dup, Options{}); err == nil {
		t.Error("no error for duplicate names")
	}
	// A plan targeting a site missing from the pool is rejected up front.
	multi, err := PlanAll(testSources(t, 1), cats, PlanOptions{Sites: []string{"alpha", "beta"}, Policy: planner.PolicyRoundRobin, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(pool, multi, Options{}); err == nil {
		t.Error("no error for plan targeting a site outside the pool")
	}
}

func TestPlanAllUnknownPolicy(t *testing.T) {
	cats := testCatalogs(t)
	if _, err := PlanAll(testSources(t, 1), cats, PlanOptions{Sites: []string{"alpha"}, Policy: "nope", Workers: 1}); err == nil {
		t.Error("no error for unknown policy")
	}
}

// grid is an OSG-like one-site configuration under the catalogs' "beta"
// name, with the preemption hazard raised so that most attempts of a
// clustered job are evicted.
func grid(seed uint64) platform.Config {
	cfg := platform.OSG(seed)
	cfg.Name = "beta"
	cfg.EvictionRate = 1.0 / 1000
	return cfg
}

// A single workflow is an ensemble of one: one Spec on a one-site pool
// and engine.Run on the bare executor of the same Config are the same
// run — every record byte, makespan and counter — in exact and in
// aggregation mode. The one-run-path refactor (ROADMAP item 3) stands on
// this equality.
func TestEnsembleOfOneEqualsEngineRun(t *testing.T) {
	specs, err := PlanAll([]WorkflowSource{{Name: "solo", Abstract: fanDAX(t, "solo", 400, 200), RetryLimit: 50}},
		testCatalogs(t), PlanOptions{
			Sites: []string{"beta"}, Policy: planner.PolicyRoundRobin, Workers: 1,
			Cluster: planner.ClusterOptions{MaxTasksPerJob: 4},
		})
	if err != nil {
		t.Fatal(err)
	}
	logBytes := func(res *engine.Result) []byte {
		var buf bytes.Buffer
		if err := res.Log.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, aggregate := range []bool{false, true} {
		ex, err := platform.NewExecutor(grid(9))
		if err != nil {
			t.Fatal(err)
		}
		alone, err := engine.Run(specs[0].Plan, ex, engine.Options{RetryLimit: 50, Aggregate: aggregate})
		if err != nil {
			t.Fatal(err)
		}
		pool, err := platform.NewMultiExecutor([]platform.Config{grid(9)})
		if err != nil {
			t.Fatal(err)
		}
		ens, err := Run(pool, specs, Options{Aggregate: aggregate})
		if err != nil {
			t.Fatal(err)
		}
		member := ens.Workflows[0].Result
		if alone.Retries < 100 || !alone.Success {
			t.Fatalf("aggregate=%v: fixture too tame: %d retries, success %v", aggregate, alone.Retries, alone.Success)
		}
		if !bytes.Equal(logBytes(alone), logBytes(member)) {
			t.Errorf("aggregate=%v: attempt logs differ", aggregate)
		}
		if !reflect.DeepEqual(alone.Log.Aggregates(), member.Log.Aggregates()) {
			t.Errorf("aggregate=%v: folded logs differ", aggregate)
		}
		if alone.Makespan != member.Makespan || alone.Makespan != ens.Makespan ||
			alone.Retries != member.Retries || alone.Evictions != member.Evictions ||
			alone.Log.Len() != member.Log.Len() {
			t.Errorf("aggregate=%v: engine.Run %v s, %d retries, %d evictions, %d attempts; ensemble of one %v s (pool %v s), %d, %d, %d",
				aggregate, alone.Makespan, alone.Retries, alone.Evictions, alone.Log.Len(),
				member.Makespan, ens.Makespan, member.Retries, member.Evictions, member.Log.Len())
		}
	}
}

// A member's policies are caller code running inside the driver loop. A
// panic in one must unwind the goroutine that called Run — where
// scenario.Run's per-cell recover turns it into a failed cell — and Run
// must leave no goroutine behind.
func TestMemberPanicSurfacesOnCaller(t *testing.T) {
	specs, err := PlanAll(testSources(t, 3), testCatalogs(t),
		PlanOptions{Sites: []string{"beta"}, Policy: planner.PolicyRoundRobin, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	specs[1].Retry = func(*planner.Job, int, string, bool) *planner.Job { panic("retry policy bug") }
	pool, err := platform.NewMultiExecutor([]platform.Config{grid(5)})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	recovered := func() (r any) {
		defer func() { r = recover() }()
		_, err := Run(pool, specs, Options{})
		t.Errorf("Run returned (err %v) instead of panicking; the fixture never consulted the retry policy", err)
		return nil
	}()
	if recovered != "retry policy bug" {
		t.Errorf("recovered %v, want the retry policy's panic", recovered)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("goroutines: %d before Run, %d after", before, after)
	}
}

// A member whose run ends in an error stops receiving events — its
// in-flight stragglers are dropped — while the other members run to
// completion; Run then reports the first failed member in spec order.
func TestMemberErrorDropsStragglersAndReportsFirst(t *testing.T) {
	specs, err := PlanAll(testSources(t, 4), testCatalogs(t),
		PlanOptions{Sites: []string{"beta"}, Policy: planner.PolicyRoundRobin, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// retries counts the healthy member's retries; atError is its value
	// when the first sibling failed.
	retries, atError := 0, -1
	rename := func(job *planner.Job, _ int, _ string, _ bool) *planner.Job {
		if atError < 0 {
			atError = retries
		}
		nj := *job
		nj.ID = job.ID + "-renamed"
		return &nj
	}
	specs[0].Backoff = func(int) float64 { retries++; return 0 }
	specs[1].Retry, specs[3].Retry = rename, rename
	pool, err := platform.NewMultiExecutor([]platform.Config{grid(5)})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(pool, specs, Options{MaxInFlight: 6})
	if err == nil || !strings.Contains(err.Error(), `workflow "wf01"`) || !strings.Contains(err.Error(), "renamed job") {
		t.Errorf("Run error = %v, want wf01's renamed-job error", err)
	}
	if atError < 0 || retries <= atError {
		t.Errorf("fixture too tame: healthy member retried %d times, %d of them before the first failure", retries, atError)
	}
}

// The hold queue releases by (priority descending, submission sequence
// ascending) whatever the interleaving of pushes and pops — the order
// container/heap gave it, since the key is a strict total order.
func TestHoldQueueReleaseOrder(t *testing.T) {
	var q holdQueue
	var want []held
	state := uint64(12345)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % n
	}
	seq := 0
	popMin := func() {
		best := 0
		for i := range want {
			if want[i].before(want[best]) {
				best = i
			}
		}
		if got := q.pop(); got != want[best] {
			t.Fatalf("pop = %+v, want %+v", got, want[best])
		}
		want = append(want[:best], want[best+1:]...)
	}
	for step := 0; step < 2000; step++ {
		if len(want) > 0 && next(3) == 0 {
			popMin()
			continue
		}
		h := held{wf: next(4), prio: next(3), seq: seq}
		seq++
		q.push(h)
		want = append(want, h)
	}
	for len(want) > 0 {
		popMin()
	}
	if len(q) != 0 {
		t.Fatalf("%d entries left in the queue", len(q))
	}
}
