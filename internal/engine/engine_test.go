package engine

import (
	"fmt"
	"strings"
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
	ev := Event{JobID: job.ID, Pos: job.Pos(), Type: EventFinished, Time: end, Record: rec}
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

// TestPriorityOrdersReadyJobs pins the submission order: the jobs one
// call readies (the roots at Start, the children of one finished job) are
// submitted highest priority first, ties in the order they were readied —
// roots in plan order, children in Children order — and a retry, the only
// job its event readies, reaches SubmitAfter with the backoff policy's
// delay.
func TestPriorityOrdersReadyJobs(t *testing.T) {
	w := dax.New("prio")
	w.NewJob("low", "t").Priority = 1
	w.NewJob("high", "t").Priority = 10
	w.NewJob("mid", "t").Priority = 5
	// Enough children that an unstable sort would not keep the ties in
	// order.
	var children []string
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("c%02d", i)
		w.NewJob(id, "t")
		if err := w.AddDependency("high", id); err != nil {
			t.Fatal(err)
		}
		if i != 17 {
			children = append(children, id)
		}
	}
	w.Job("c17").Priority = 1 << 20 // a stage-in job's priority
	p := makePlan(t, w)
	ex := &delayingExecutor{fakeExecutor: newFakeExecutor()}
	ex.failures["c05"] = 1
	res, err := Run(p, ex, Options{RetryLimit: 1, Backoff: func(int) float64 { return 7 }})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success || res.Backoffs != 1 {
		t.Fatalf("Success=%v Backoffs=%d, want true/1", res.Success, res.Backoffs)
	}
	want := append([]string{"high", "mid", "low", "c17"}, children...)
	want = append(want, "c05")
	if strings.Join(ex.submitted, " ") != strings.Join(want, " ") {
		t.Fatalf("submission order = %v, want %v", ex.submitted, want)
	}
	if len(ex.delays) != 1 || ex.delays[0] != 7 {
		t.Errorf("SubmitAfter delays = %v, want [7]", ex.delays)
	}
}

// dupExecutor is a fakeExecutor that reports the first terminal event of
// one job twice, back to back.
type dupExecutor struct {
	*fakeExecutor
	dup  string
	done bool
}

func (d *dupExecutor) Next() Event {
	ev := d.fakeExecutor.Next()
	if ev.JobID == d.dup && !d.done {
		d.done = true
		d.queue = append([]Event{ev}, d.queue...)
	}
	return ev
}

// TestHandleRejectsDuplicateEvent: an event for a job with no attempt in
// flight — a job already done, or a failure reported twice, which would
// otherwise put two retries in flight — ends the run with an error naming
// the job, instead of logging a second success or draining the in-flight
// count under the jobs still running.
func TestHandleRejectsDuplicateEvent(t *testing.T) {
	for name, fail := range map[string]int{"finish": 0, "failure": 1} {
		ex := &dupExecutor{fakeExecutor: newFakeExecutor(), dup: "A"}
		ex.failures["A"] = fail
		res, err := Run(diamondPlan(t), ex, Options{RetryLimit: 2})
		if err == nil || !strings.Contains(err.Error(), `"A"`) {
			t.Errorf("duplicated %s: error %v, result %+v; want an error naming A", name, err, res)
		}
	}
}

// TestHandleRejectsForeignEvent: the session finds an event's job by its
// position and checks the ID there, so a position out of range, a position
// that holds another job and an ID the plan lacks each end the run with an
// error, not a panic or a step on the wrong job; and a retry policy may
// re-bind a job but not move it.
func TestHandleRejectsForeignEvent(t *testing.T) {
	p := diamondPlan(t)
	posA, posB := p.Indexed().ByID["A"], p.Indexed().ByID["B"]
	for name, ev := range map[string]Event{
		"position past the end": {JobID: "A", Pos: int32(p.Len())},
		"negative position":     {JobID: "A", Pos: -1},
		"another job's slot":    {JobID: "A", Pos: posB},
		"unknown ID":            {JobID: "Z", Pos: posA},
	} {
		s := Start(p, newFakeExecutor(), Options{})
		s.Handle(ev)
		if s.Active() {
			t.Errorf("%s: the session is still active", name)
		}
		if _, err := s.Finish(); err == nil || !strings.Contains(err.Error(), "unknown job") {
			t.Errorf("%s: error %v, want an unknown job", name, err)
		}
	}

	ex := newFakeExecutor()
	ex.failures["A"] = 1
	moved := func(job *planner.Job, _ int, _ string, _ bool) *planner.Job {
		nj := *p.JobAt(posB)
		nj.ID = job.ID
		return &nj
	}
	if _, err := Run(p, ex, Options{RetryLimit: 1, Retry: moved}); err == nil || !strings.Contains(err.Error(), "moved job") {
		t.Errorf("a retry policy that moved A: error %v, want a refusal", err)
	}
}

func TestMakespanIsLastEventTime(t *testing.T) {
	p := diamondPlan(t)
	ex := newFakeExecutor()
	res, err := Run(p, ex, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 1 s per job under the fake's clock: A, then B and C together, then D.
	if res.Makespan != 3 {
		t.Errorf("Makespan = %v, want 3", res.Makespan)
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
