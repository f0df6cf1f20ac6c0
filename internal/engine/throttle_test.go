package engine

import (
	"fmt"
	"testing"
	"testing/quick"

	"pegflow/internal/catalog"
	"pegflow/internal/dax"
	"pegflow/internal/planner"
)

func TestThrottleWithRetriesStaysBounded(t *testing.T) {
	w := dax.New("wide")
	for i := 0; i < 40; i++ {
		w.NewJob(fmt.Sprintf("J%02d", i), "t")
	}
	p := makePlan(t, w)
	ex := newFakeExecutor()
	for i := 0; i < 40; i += 3 {
		ex.failures[fmt.Sprintf("J%02d", i)] = 1
	}
	res, err := Run(p, ex, Options{MaxActive: 4, RetryLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("failed: %v", res.PermanentlyFailed)
	}
	if ex.maxInflight > 4 {
		t.Errorf("maxInflight = %d with retries, want ≤ 4", ex.maxInflight)
	}
	if res.Retries != 14 {
		t.Errorf("retries = %d, want 14", res.Retries)
	}
}

// Property: for any DAG shape, failure pattern and retry limit, the engine
// terminates with Completed ∪ Unfinished = all jobs, a descendant of a
// permanently-failed job never runs, and the log's per-job attempt count
// never exceeds RetryLimit+1.
func TestPropertyEngineTermination(t *testing.T) {
	f := func(seed uint32, retryRaw uint8) bool {
		retry := int(retryRaw % 3)
		n := int(seed%15) + 3
		w := dax.New("rand")
		for i := 0; i < n; i++ {
			w.NewJob(fmt.Sprintf("J%02d", i), "t")
		}
		s := seed
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				s = s*1664525 + 1013904223
				if s%3 == 0 {
					_ = w.AddDependency(fmt.Sprintf("J%02d", i), fmt.Sprintf("J%02d", j))
				}
			}
		}
		p := makePlanQuick(w)
		if p == nil {
			return false
		}
		ex := newFakeExecutor()
		for i := 0; i < n; i++ {
			s = s*1664525 + 1013904223
			if s%4 == 0 {
				ex.failures[fmt.Sprintf("J%02d", i)] = int(s % 5)
			}
		}
		res, err := Run(p, ex, Options{RetryLimit: retry})
		if err != nil {
			return false
		}
		if len(res.Completed)+len(res.Unfinished) != n {
			return false
		}
		attempts := map[string]int{}
		for _, r := range res.Log.Records() {
			attempts[r.JobID]++
		}
		for _, a := range attempts {
			if a > retry+1 {
				return false
			}
		}
		// Descendants of permanently failed jobs must be unfinished.
		failed := map[string]bool{}
		for _, id := range res.PermanentlyFailed {
			failed[id] = true
		}
		unfinished := map[string]bool{}
		for _, id := range res.Unfinished {
			unfinished[id] = true
		}
		var check func(id string) bool
		check = func(id string) bool {
			for _, c := range p.Graph().Children(id) {
				if !unfinished[c] || !check(c) {
					return false
				}
			}
			return true
		}
		for id := range failed {
			if !check(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// makePlanQuick mirrors makePlan without *testing.T for property use;
// it returns nil on any setup error.
func makePlanQuick(w *dax.Workflow) *planner.Plan {
	sc := catalog.NewSiteCatalog()
	if err := sc.Add(&catalog.Site{Name: "test", Slots: 8, SpeedFactor: 1, SharedSoftware: true}); err != nil {
		return nil
	}
	tc := catalog.NewTransformationCatalog()
	seen := map[string]bool{}
	for _, j := range w.Jobs() {
		if seen[j.Transformation] {
			continue
		}
		seen[j.Transformation] = true
		if err := tc.Add(&catalog.Transformation{Name: j.Transformation, Site: "test", Installed: true}); err != nil {
			return nil
		}
	}
	p, err := planner.New(w, planner.Catalogs{
		Sites: sc, Transformations: tc, Replicas: catalog.NewReplicaCatalog(),
	}, planner.Options{Site: "test"})
	if err != nil {
		return nil
	}
	return p
}
