package core

import (
	"fmt"
	"testing"

	"pegflow/internal/engine"
	"pegflow/internal/planner"
	"pegflow/internal/stats"
)

// TestSummaryRetriesMatchEngine: the retries a workflow summary reports
// are the re-submissions the engine made, on unclustered and clustered
// OSG runs and on a clustered failover ensemble across Sandhills and
// OSG, in both log modes. A composite job's failure records carry the
// composite's ID and its landing's records each member's, so a summary
// keyed by job ID alone counts a retried-then-landed composite as never
// finished.
func TestSummaryRetriesMatchEngine(t *testing.T) {
	world, err := paperWorld()
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, res *engine.Result) {
		t.Helper()
		if got := stats.Summarize(res.Log, res.Makespan).Retries; got != res.Retries {
			t.Errorf("%s: Summary.Retries = %d, engine made %d re-submissions", name, got, res.Retries)
		}
	}
	clusterings := []planner.ClusterOptions{
		{},
		{MaxTasksPerJob: 8},
		{TargetJobSeconds: 1800},
	}
	runs, retried := 0, 0
	for _, aggregate := range []bool{false, true} {
		for seed := uint64(1); seed <= 20; seed++ {
			e := DefaultExperiment(seed)
			e.Aggregate = aggregate
			for _, copts := range clusterings {
				r, err := e.runOnSite(world, "osg", 300, e.Workload, copts)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("aggregate=%v seed %d osg n=300 %+v", aggregate, seed, copts), r.Result)
				runs++
				if r.Result.Retries > 0 {
					retried++
				}
			}
			ens, err := PaperEnsemble(seed, 4, 40, planner.PolicyDataAware)
			if err != nil {
				t.Fatal(err)
			}
			ens.Cluster = planner.ClusterOptions{MaxTasksPerJob: 6}
			ens.Failover = true
			ens.Aggregate = aggregate
			res, err := ens.Run()
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range res.Workflows {
				check(fmt.Sprintf("aggregate=%v seed %d ensemble member %s", aggregate, seed, w.Name), w.Result)
				runs++
				if w.Result.Retries > 0 {
					retried++
				}
			}
		}
	}
	if runs != 280 || retried < runs/4 {
		t.Fatalf("fixture too tame: %d runs, %d with retries", runs, retried)
	}
}
