package engine

import (
	"fmt"
	"reflect"
	"testing"

	"pegflow/internal/dax"
	"pegflow/internal/planner"
)

// nullExecutor completes every submission instantly with no kickstart
// record and, after warm-up, no allocation: the event queue's backing
// array is reused across runs via reset.
type nullExecutor struct {
	queue []Event
	head  int
	now   float64
}

func (e *nullExecutor) reset() {
	e.queue = e.queue[:0]
	e.head = 0
	e.now = 0
}

func (e *nullExecutor) Submit(job *planner.Job, attempt int) {
	e.now++
	e.queue = append(e.queue, Event{JobID: job.ID, Type: EventFinished, Time: e.now})
}

func (e *nullExecutor) Next() Event {
	ev := e.queue[e.head]
	e.head++
	return ev
}

func (e *nullExecutor) Now() float64 { return e.now }

// wideChainPlan builds a plan of `width` independent two-job chains —
// enough jobs that any per-dispatch allocation would dominate the
// measurement.
func wideChainPlan(t testing.TB, width int) *planner.Plan {
	t.Helper()
	w := dax.New("alloc-fixture")
	for i := 0; i < width; i++ {
		a, b := fmt.Sprintf("a%04d", i), fmt.Sprintf("b%04d", i)
		w.NewJob(a, "t")
		w.NewJob(b, "t")
		if err := w.AddDependency(a, b); err != nil {
			t.Fatal(err)
		}
	}
	var jobs []planner.Job
	for _, j := range w.Jobs() {
		jobs = append(jobs, planner.Job{ID: j.ID, Transformation: "t", Site: "s"})
	}
	plan, err := planner.Assemble(w, "s", jobs)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestAllocsEngineDispatch is the allocation regression gate for the
// dispatch loop (run by CI as `go test -run 'TestAllocs'`): with per-job
// state in index-addressed slices, a whole engine run costs a bounded
// handful of allocations — amortized slice growth plus the Result — not
// several map insertions per job as the string-keyed version did.
func TestAllocsEngineDispatch(t *testing.T) {
	const width = 256 // 512 jobs
	plan := wideChainPlan(t, width)
	ex := &nullExecutor{}
	if _, err := Run(plan, ex, Options{}); err != nil { // warm plan index + queue capacity
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		ex.reset()
		if _, err := Run(plan, ex, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	// Budget: fixed run-level structures with headroom; ~0.1 allocs/job.
	const budget = 56
	if allocs > budget {
		t.Errorf("engine.Run(512 jobs) allocates %.0f/run, budget %d (%.3f/job)",
			allocs, budget, allocs/float64(2*width))
	}
}

// TestSlabTypesCarryNoCopy: the leading noCopy field is what makes `go vet`
// reject a by-value copy of a slab type; dropping it must fail here.
func TestSlabTypesCarryNoCopy(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeOf((*readyQueue)(nil)).Elem(),
	} {
		if f := typ.Field(0); f.Type != reflect.TypeOf(noCopy{}) {
			t.Errorf("%s: first field is %s %s, want the noCopy guard", typ, f.Name, f.Type)
		}
	}
}
