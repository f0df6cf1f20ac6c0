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
	"pegflow/internal/fault"
	"pegflow/internal/planner"
	"pegflow/internal/sim/platform"
	"pegflow/internal/sim/rng"
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

func runEnsemble(t *testing.T, seed uint64, maxInFlight int, policy string) (*Result, []Spec) {
	t.Helper()
	cats := testCatalogs(t)
	specs, err := PlanAll(testSources(t, 8), cats, PlanOptions{Sites: []string{"alpha", "beta"}, Policy: policy})
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
// for a fixed seed — byte-identical JSON stats across repeated runs.
func TestEnsembleDeterministic(t *testing.T) {
	for _, policy := range planner.PolicyNames() {
		var first []byte
		for run := range 3 {
			res, _ := runEnsemble(t, 42, 24, policy)
			var buf bytes.Buffer
			if err := res.Report(policy).WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			if run == 0 {
				first = buf.Bytes()
				continue
			}
			if !bytes.Equal(first, buf.Bytes()) {
				t.Fatalf("policy %s: run %d differs from the first:\n%s\n---\n%s",
					policy, run, first, buf.Bytes())
			}
		}
	}
}

func TestEnsembleCompletesAllWorkflows(t *testing.T) {
	res, specs := runEnsemble(t, 7, 0, planner.PolicyDataAware)
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
	res, _ := runEnsemble(t, 11, cap, planner.PolicyRoundRobin)
	for _, s := range res.Sites {
		// Per-site maxima are reached at different times, so only each
		// individual site is bounded by the global in-flight cap.
		if s.MaxBusySlots > cap {
			t.Errorf("site %s max busy slots = %d, want <= %d", s.Site, s.MaxBusySlots, cap)
		}
	}
	throttled := res.Makespan
	free, _ := runEnsemble(t, 11, 0, planner.PolicyRoundRobin)
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
	specs, err := PlanAll(srcs, cats, PlanOptions{Sites: []string{"alpha"}, Policy: planner.PolicyRoundRobin})
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
	specs, err := PlanAll(testSources(t, 2), cats, PlanOptions{Sites: []string{"alpha"}, Policy: planner.PolicyRoundRobin})
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
	multi, err := PlanAll(testSources(t, 1), cats, PlanOptions{Sites: []string{"alpha", "beta"}, Policy: planner.PolicyRoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(pool, multi, Options{}); err == nil {
		t.Error("no error for plan targeting a site outside the pool")
	}
}

func TestPlanAllUnknownPolicy(t *testing.T) {
	cats := testCatalogs(t)
	if _, err := PlanAll(testSources(t, 1), cats, PlanOptions{Sites: []string{"alpha"}, Policy: "nope"}); err == nil {
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
			Sites: []string{"beta"}, Policy: planner.PolicyRoundRobin,
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

// faultyPool builds the two-site test pool armed with one fault of every
// kind: an outage on beta, a killing storm on alpha, a capacity step down to
// two slots and a blackout.
func faultyPool(t *testing.T, seed uint64) *platform.MultiExecutor {
	t.Helper()
	pool, err := platform.NewMultiExecutor(testConfigs(seed))
	if err != nil {
		t.Fatal(err)
	}
	two := 2
	script, err := fault.Compile([]fault.Spec{
		{Type: fault.TypeOutage, Site: "beta", At: 40, Duration: 300},
		{Type: fault.TypeStorm, Site: "alpha", At: 120, Duration: 200, Rate: 2e-3, KillFraction: 0.5},
		{Type: fault.TypeCapacity, Site: "alpha", At: 400, Slots: &two},
		{Type: fault.TypeBlackout, Site: "beta", At: 500, Duration: 150},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.InstallFaults(script); err != nil {
		t.Fatal(err)
	}
	return pool
}

// engine.Run on a two-site pool and an ensemble of one on the same pool are
// the same run whatever the pool throws at it — faults of every kind,
// cross-site failover, backoff delays on the pool's clock, clustered
// composites — because both drivers take their terminal events off one
// route, in one order.
func TestEnsembleOfOneEqualsEngineRunOnFaultyPool(t *testing.T) {
	cats := testCatalogs(t)
	sites := []string{"alpha", "beta"}
	specs, err := PlanAll([]WorkflowSource{{Name: "solo", Abstract: fanDAX(t, "solo", 60, 150), RetryLimit: 30}},
		cats, PlanOptions{
			Sites: sites, Policy: planner.PolicyDataAware, Failover: true,
			Cluster: planner.ClusterOptions{MaxTasksPerJob: 3},
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
	backoff := func(seed uint64) engine.BackoffPolicy {
		return engine.ExpBackoff(3, 40, rng.New(seed).Derive("backoff"))
	}
	var failovers, backoffs, evictions int
	for seed := uint64(1); seed <= 20; seed++ {
		for _, aggregate := range []bool{false, true} {
			fo, err := planner.NewFailover(cats, sites)
			if err != nil {
				t.Fatal(err)
			}
			alone, err := engine.Run(specs[0].Plan, faultyPool(t, seed), engine.Options{
				RetryLimit: 30, Retry: fo.Resite, Backoff: backoff(seed), Aggregate: aggregate,
			})
			if err != nil {
				t.Fatal(err)
			}
			// The spec's failover policy is this run's own: PlanAll gave it a
			// fresh one, and the policy is adaptive.
			if fo, err = planner.NewFailover(cats, sites); err != nil {
				t.Fatal(err)
			}
			member := specs[0]
			member.Retry, member.Backoff = fo.Resite, backoff(seed)
			ens, err := Run(faultyPool(t, seed), []Spec{member}, Options{Aggregate: aggregate})
			if err != nil {
				t.Fatal(err)
			}
			got := ens.Workflows[0].Result
			if !bytes.Equal(logBytes(alone), logBytes(got)) {
				t.Errorf("seed %d aggregate=%v: attempt logs differ", seed, aggregate)
			}
			if alone.Makespan != got.Makespan || alone.Makespan != ens.Makespan ||
				alone.Retries != got.Retries || alone.Failovers != got.Failovers ||
				alone.Backoffs != got.Backoffs || alone.Evictions != got.Evictions {
				t.Errorf("seed %d aggregate=%v: engine.Run %v s, %d retries, %d failovers, %d backoffs, %d evictions; "+
					"ensemble of one %v s (pool %v s), %d, %d, %d, %d", seed, aggregate,
					alone.Makespan, alone.Retries, alone.Failovers, alone.Backoffs, alone.Evictions,
					got.Makespan, ens.Makespan, got.Retries, got.Failovers, got.Backoffs, got.Evictions)
			}
			if seed == 1 && !aggregate {
				t.Logf("seed 1: %d failovers, %d backoffs, %d evictions, %d attempts",
					alone.Failovers, alone.Backoffs, alone.Evictions, alone.Log.Len())
			}
			failovers += alone.Failovers
			backoffs += alone.Backoffs
			evictions += alone.Evictions
		}
	}
	if failovers == 0 || backoffs == 0 || evictions == 0 {
		t.Fatalf("fixture too tame: %d failovers, %d backoffs, %d evictions over 40 runs", failovers, backoffs, evictions)
	}
}

// A member's policies are caller code running inside the driver loop. A
// panic in one must unwind the goroutine that called Run — where
// scenario.Run's per-cell recover turns it into a failed cell — and Run
// must leave no goroutine behind.
func TestMemberPanicSurfacesOnCaller(t *testing.T) {
	specs, err := PlanAll(testSources(t, 3), testCatalogs(t),
		PlanOptions{Sites: []string{"beta"}, Policy: planner.PolicyRoundRobin})
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
		PlanOptions{Sites: []string{"beta"}, Policy: planner.PolicyRoundRobin})
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

// A site whose capacity drops to zero for good leaves the kernel with
// nothing to fire while the member still waits on it: Run must report the
// deadlock as an error, not panic and not spin.
func TestRunReportsDryKernelAsDeadlock(t *testing.T) {
	specs, err := PlanAll(testSources(t, 1), testCatalogs(t),
		PlanOptions{Sites: []string{"alpha"}, Policy: planner.PolicyRoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := platform.NewMultiExecutor(testConfigs(1)[:1])
	if err != nil {
		t.Fatal(err)
	}
	zero := 0
	script, err := fault.Compile([]fault.Spec{{Type: fault.TypeCapacity, Site: "alpha", At: 0, Slots: &zero}})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.InstallFaults(script); err != nil {
		t.Fatal(err)
	}
	res, err := Run(pool, specs, Options{})
	if want := "ensemble: deadlock: 1 workflows active with no platform events"; err == nil || err.Error() != want {
		t.Fatalf("Run = %v, %v; want error %q", res, err, want)
	}
}

// TestReleasedResultHandsBackStorage: Release nils every member log — its
// records are the next run's — and leaves the pool and the member plans
// unusable, while the rest of the result stays readable and a second run on
// the released storage reports the same.
func TestReleasedResultHandsBackStorage(t *testing.T) {
	res, specs := runEnsemble(t, 3, 0, planner.PolicyDataAware)
	want := res.Report("data-aware")
	pool := res.pool
	res.Release()
	for _, w := range res.Workflows {
		if w.Result.Log != nil {
			t.Errorf("%s: log survives Release", w.Name)
		}
	}
	if res.Makespan != want.Makespan || len(res.Sites) != len(want.Sites) {
		t.Error("Release changed the result's makespan or usage")
	}
	for name, use := range map[string]func(){
		"pool":    func() { pool.Now() },
		"plan":    func() { specs[0].Plan.JobAt(0) },
		"Release": func() { res.Release() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: use after Release did not panic", name)
				}
			}()
			use()
		}()
	}
	again, _ := runEnsemble(t, 3, 0, planner.PolicyDataAware)
	if got := again.Report("data-aware"); !reflect.DeepEqual(got, want) {
		t.Errorf("a run on released storage reports\n%+v\nwant\n%+v", got, want)
	}
}
