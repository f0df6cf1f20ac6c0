package blast2cap3

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"pegflow/internal/bio/cap3"
	"pegflow/internal/catalog"
	"pegflow/internal/dax"
	"pegflow/internal/engine"
	"pegflow/internal/planner"
)

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

func TestLocalExecutorRunsRealFunctions(t *testing.T) {
	var mu sync.Mutex
	ran := map[string]int{}
	reg := map[string]task{
		"t": func(ctx *taskContext) error {
			mu.Lock()
			defer mu.Unlock()
			ran[ctx.Job.ID]++
			return nil
		},
	}
	p := diamondPlan(t)
	ex := newLocalExecutor(reg, t.TempDir(), 4)
	res, err := engine.Run(p, ex, engine.Options{})
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
	reg := map[string]task{
		"t": func(ctx *taskContext) error {
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
	ex := newLocalExecutor(reg, t.TempDir(), 1)
	res, err := engine.Run(p, ex, engine.Options{RetryLimit: 1})
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
	ex := newLocalExecutor(map[string]task{}, t.TempDir(), 1)
	res, err := engine.Run(p, ex, engine.Options{})
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
	reg := map[string]task{
		"t": func(ctx *taskContext) error { panic("task bug") },
	}
	w := dax.New("single")
	w.NewJob("only", "t")
	p := makePlan(t, w)
	ex := newLocalExecutor(reg, t.TempDir(), 1)
	res, err := engine.Run(p, ex, engine.Options{})
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
	reg := map[string]task{
		"t": func(ctx *taskContext) error {
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
	ex := newLocalExecutor(reg, t.TempDir(), 2)
	if _, err := engine.Run(p, ex, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	if max > 2 {
		t.Errorf("observed %d concurrent tasks, want ≤ 2", max)
	}
}

// TestRunWorkflowRejectsNonPositiveParallelism: a parallelism below one is
// an error naming the value, returned before the working directory is
// touched.
func TestRunWorkflowRejectsNonPositiveParallelism(t *testing.T) {
	for _, p := range []int{0, -1} {
		dir := filepath.Join(t.TempDir(), "work")
		_, _, err := RunWorkflow(dir, 4, p, cap3.DefaultParams())
		want := fmt.Sprintf("blast2cap3: parallelism must be positive, got %d", p)
		if err == nil || err.Error() != want {
			t.Errorf("parallelism %d: err = %v, want %q", p, err, want)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("parallelism %d: working directory touched: %v", p, err)
		}
	}
}
