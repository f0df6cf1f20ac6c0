package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"pegflow/internal/catalog"
	"pegflow/internal/dax"
	"pegflow/internal/kickstart"
	"pegflow/internal/planner"
)

// fakeExecutor is a deterministic in-memory executor: each submitted job
// finishes instantly in submission order, with scripted failures.
type fakeExecutor struct {
	queue []Event
	now   float64
	// failures maps jobID → number of initial attempts that fail.
	failures map[string]int
	// evict marks failures reported as evictions instead.
	evict map[string]bool
	seen  map[string]int
	// submitted records submission order.
	submitted []string
	// concurrent tracks the high-water mark of in-flight jobs.
	inflight, maxInflight int
}

func newFakeExecutor() *fakeExecutor {
	return &fakeExecutor{failures: map[string]int{}, evict: map[string]bool{}, seen: map[string]int{}}
}

func (f *fakeExecutor) Now() float64 { return f.now }

func (f *fakeExecutor) Submit(job *planner.Job, attempt int) {
	f.submitted = append(f.submitted, job.ID)
	f.seen[job.ID]++
	f.inflight++
	if f.inflight > f.maxInflight {
		f.maxInflight = f.inflight
	}
	start := f.now
	end := start + 1
	rec := &kickstart.Record{
		JobID: job.ID, Transformation: job.Transformation, Site: job.Site,
		Attempt: attempt, SubmitTime: start, SetupStart: start, ExecStart: start, EndTime: end,
		Status: kickstart.StatusSuccess,
	}
	ev := Event{JobID: job.ID, Type: EventFinished, Time: end, Record: rec}
	if f.seen[job.ID] <= f.failures[job.ID] {
		if f.evict[job.ID] {
			ev.Type = EventEvicted
			rec.Status = kickstart.StatusEvicted
		} else {
			ev.Type = EventFailed
			rec.Status = kickstart.StatusFailed
		}
	}
	f.queue = append(f.queue, ev)
}

func (f *fakeExecutor) Next() Event {
	ev := f.queue[0]
	f.queue = f.queue[1:]
	f.now = ev.Time
	f.inflight--
	return ev
}

func diamondPlan(t *testing.T) *planner.Plan {
	t.Helper()
	w := dax.New("diamond")
	w.NewJob("A", "t").SetProfile("pegasus", "runtime", "10")
	w.NewJob("B", "t").SetProfile("pegasus", "runtime", "10")
	w.NewJob("C", "t").SetProfile("pegasus", "runtime", "10")
	w.NewJob("D", "t").SetProfile("pegasus", "runtime", "10")
	for _, e := range [][2]string{{"A", "B"}, {"A", "C"}, {"B", "D"}, {"C", "D"}} {
		if err := w.AddDependency(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return makePlan(t, w)
}

func makePlan(t *testing.T, w *dax.Workflow) *planner.Plan {
	t.Helper()
	sc := catalog.NewSiteCatalog()
	if err := sc.Add(&catalog.Site{Name: "test", Slots: 8, SpeedFactor: 1, SharedSoftware: true}); err != nil {
		t.Fatal(err)
	}
	tc := catalog.NewTransformationCatalog()
	seen := map[string]bool{}
	for _, j := range w.Jobs() {
		if seen[j.Transformation] {
			continue
		}
		seen[j.Transformation] = true
		if err := tc.Add(&catalog.Transformation{Name: j.Transformation, Site: "test", Installed: true}); err != nil {
			t.Fatal(err)
		}
	}
	p, err := planner.New(w, planner.Catalogs{
		Sites: sc, Transformations: tc, Replicas: catalog.NewReplicaCatalog(),
	}, planner.Options{Site: "test"})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunHappyPath(t *testing.T) {
	p := diamondPlan(t)
	ex := newFakeExecutor()
	res, err := Run(p, ex, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("Success = false: %+v", res)
	}
	if len(res.Completed) != 4 || len(res.Unfinished) != 0 {
		t.Errorf("Completed=%v Unfinished=%v", res.Completed, res.Unfinished)
	}
	if res.Log.Len() != 4 {
		t.Errorf("log has %d records, want 4", res.Log.Len())
	}
	// A must be submitted before B and C, D last.
	if ex.submitted[0] != "A" || ex.submitted[3] != "D" {
		t.Errorf("submission order = %v", ex.submitted)
	}
}

func TestRunDependencyOrderNeverViolated(t *testing.T) {
	w := dax.New("chain")
	prev := ""
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("J%02d", i)
		w.NewJob(id, "t")
		if prev != "" {
			if err := w.AddDependency(prev, id); err != nil {
				t.Fatal(err)
			}
		}
		prev = id
	}
	p := makePlan(t, w)
	ex := newFakeExecutor()
	res, err := Run(p, ex, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatal("chain did not complete")
	}
	for i := 1; i < len(ex.submitted); i++ {
		if ex.submitted[i] <= ex.submitted[i-1] {
			t.Fatalf("chain submitted out of order: %v", ex.submitted)
		}
	}
}

func TestRetrySucceedsWithinLimit(t *testing.T) {
	p := diamondPlan(t)
	ex := newFakeExecutor()
	ex.failures["B"] = 2
	res, err := Run(p, ex, Options{RetryLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("workflow failed despite retries: %+v", res)
	}
	if res.Retries != 2 {
		t.Errorf("Retries = %d, want 2", res.Retries)
	}
	if ex.seen["B"] != 3 {
		t.Errorf("B attempted %d times, want 3", ex.seen["B"])
	}
	if got := len(res.Log.Failures()); got != 2 {
		t.Errorf("failure records = %d, want 2", got)
	}
}

func TestRetryExhaustionSkipsDescendants(t *testing.T) {
	p := diamondPlan(t)
	ex := newFakeExecutor()
	ex.failures["B"] = 3
	res, err := Run(p, ex, Options{RetryLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Success {
		t.Fatal("Success despite permanent failure")
	}
	if len(res.PermanentlyFailed) != 1 || res.PermanentlyFailed[0] != "B" {
		t.Errorf("PermanentlyFailed = %v", res.PermanentlyFailed)
	}
	// D depends on B, so it must be unfinished; C completes.
	rescue := res.RescueWorkflow()
	if len(rescue) != 2 || rescue[0] != "B" || rescue[1] != "D" {
		t.Errorf("rescue = %v, want [B D]", rescue)
	}
	if ex.seen["C"] != 1 {
		t.Errorf("independent branch C attempted %d times", ex.seen["C"])
	}
	if ex.seen["D"] != 0 {
		t.Errorf("descendant D was submitted despite failed parent")
	}
}

func TestEvictionCountsAndRetries(t *testing.T) {
	p := diamondPlan(t)
	ex := newFakeExecutor()
	ex.failures["C"] = 1
	ex.evict["C"] = true
	res, err := Run(p, ex, Options{RetryLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatal("workflow failed")
	}
	if res.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", res.Evictions)
	}
	if res.Retries != 1 {
		t.Errorf("Retries = %d, want 1", res.Retries)
	}
}

func TestMaxActiveThrottle(t *testing.T) {
	w := dax.New("wide")
	for i := 0; i < 30; i++ {
		w.NewJob(fmt.Sprintf("J%02d", i), "t")
	}
	p := makePlan(t, w)
	ex := newFakeExecutor()
	res, err := Run(p, ex, Options{MaxActive: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatal("workflow failed")
	}
	if ex.maxInflight > 3 {
		t.Errorf("maxInflight = %d, want ≤ 3", ex.maxInflight)
	}
}

func TestPriorityOrdersReadyJobs(t *testing.T) {
	w := dax.New("prio")
	w.NewJob("low", "t").Priority = 1
	w.NewJob("high", "t").Priority = 10
	w.NewJob("mid", "t").Priority = 5
	p := makePlan(t, w)
	ex := newFakeExecutor()
	if _, err := Run(p, ex, Options{MaxActive: 1}); err != nil {
		t.Fatal(err)
	}
	want := []string{"high", "mid", "low"}
	for i, id := range want {
		if ex.submitted[i] != id {
			t.Fatalf("submission order = %v, want %v", ex.submitted, want)
		}
	}
}

func TestMakespanIsLastEventTime(t *testing.T) {
	p := diamondPlan(t)
	ex := newFakeExecutor()
	res, err := Run(p, ex, Options{MaxActive: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 4 jobs × 1 s each, sequential under the fake's clock.
	if res.Makespan != 4 {
		t.Errorf("Makespan = %v, want 4", res.Makespan)
	}
}

// TestRunRejectsCyclicPlan: a cycle is refused where a plan is built — the
// engine is never handed one — and since a plan's topology is its index, an
// edit to the view Graph hands out reaches no run.
func TestRunRejectsCyclicPlan(t *testing.T) {
	cyclic := dax.New("cyclic")
	jobs := make([]planner.Job, 0, 4)
	for _, id := range []string{"A", "B", "C", "D"} {
		cyclic.NewJob(id, "t")
		jobs = append(jobs, planner.Job{ID: id, Transformation: "t", Site: "test"})
	}
	for _, e := range [][2]string{{"A", "B"}, {"A", "C"}, {"B", "D"}, {"C", "D"}, {"D", "A"}} {
		if err := cyclic.AddDependency(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := planner.Assemble(cyclic, "test", jobs); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("Assemble of a cyclic graph: error %v, want a cycle refused", err)
	}

	p := diamondPlan(t)
	if err := p.Graph().AddDependency("D", "A"); err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, newFakeExecutor(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success || len(res.Completed) != 4 {
		t.Errorf("an edge added to a view reached the run: %+v", res)
	}
}

// --- LocalExecutor tests ---

func TestLocalExecutorRunsRealFunctions(t *testing.T) {
	var mu sync.Mutex
	ran := map[string]int{}
	reg := Registry{
		"t": func(ctx *TaskContext) error {
			mu.Lock()
			defer mu.Unlock()
			ran[ctx.Job.ID]++
			return nil
		},
	}
	p := diamondPlan(t)
	ex := NewLocalExecutor(reg, t.TempDir(), 4)
	res, err := Run(p, ex, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("run failed: %+v", res)
	}
	for _, id := range []string{"A", "B", "C", "D"} {
		if ran[id] != 1 {
			t.Errorf("job %s ran %d times", id, ran[id])
		}
	}
	for _, r := range res.Log.Records() {
		if err := r.Validate(); err != nil {
			t.Errorf("invalid record: %v", err)
		}
		if r.Node != "local" {
			t.Errorf("node = %q", r.Node)
		}
	}
}

func TestLocalExecutorFailureAndRetry(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	reg := Registry{
		"t": func(ctx *TaskContext) error {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if calls == 1 {
				return fmt.Errorf("transient error")
			}
			return nil
		},
	}
	w := dax.New("single")
	w.NewJob("only", "t")
	p := makePlan(t, w)
	ex := NewLocalExecutor(reg, t.TempDir(), 1)
	res, err := Run(p, ex, Options{RetryLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success || res.Retries != 1 {
		t.Fatalf("Success=%v Retries=%d", res.Success, res.Retries)
	}
	fails := res.Log.Failures()
	if len(fails) != 1 || fails[0].ExitMessage != "transient error" {
		t.Errorf("failure records = %+v", fails)
	}
}

func TestLocalExecutorUnregisteredTransformationFailsJob(t *testing.T) {
	w := dax.New("single")
	w.NewJob("only", "mystery")
	p := makePlan(t, w)
	ex := NewLocalExecutor(Registry{}, t.TempDir(), 1)
	res, err := Run(p, ex, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Success {
		t.Error("unregistered transformation succeeded")
	}
	if len(res.PermanentlyFailed) != 1 {
		t.Errorf("PermanentlyFailed = %v", res.PermanentlyFailed)
	}
}

func TestLocalExecutorPanicBecomesFailure(t *testing.T) {
	reg := Registry{
		"t": func(ctx *TaskContext) error { panic("task bug") },
	}
	w := dax.New("single")
	w.NewJob("only", "t")
	p := makePlan(t, w)
	ex := NewLocalExecutor(reg, t.TempDir(), 1)
	res, err := Run(p, ex, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Success {
		t.Error("panicking task reported success")
	}
	fails := res.Log.Failures()
	if len(fails) != 1 || fails[0].ExitMessage == "" {
		t.Errorf("failure detail lost: %+v", fails)
	}
}

func TestLocalExecutorParallelismBound(t *testing.T) {
	var mu sync.Mutex
	cur, max := 0, 0
	reg := Registry{
		"t": func(ctx *TaskContext) error {
			mu.Lock()
			cur++
			if cur > max {
				max = cur
			}
			mu.Unlock()
			// Hold the slot briefly so overlap is observable.
			for i := 0; i < 1000; i++ {
				_ = i
			}
			mu.Lock()
			cur--
			mu.Unlock()
			return nil
		},
	}
	w := dax.New("wide")
	for i := 0; i < 16; i++ {
		w.NewJob(fmt.Sprintf("J%02d", i), "t")
	}
	p := makePlan(t, w)
	ex := NewLocalExecutor(reg, t.TempDir(), 2)
	if _, err := Run(p, ex, Options{}); err != nil {
		t.Fatal(err)
	}
	if max > 2 {
		t.Errorf("observed %d concurrent tasks, want ≤ 2", max)
	}
}
