package scenario

import (
	"math"
	"testing"

	"pegflow/internal/planner"
	"pegflow/internal/workflow"
)

// forkJoinDoc is a site on which the platform is a textbook list scheduler
// with more slots than the workflow ever has ready jobs: no dispatch latency
// (platform.Config.DispatchMean), no submit throttle (SubmitInterval), no
// install (Preinstalled, SetupMean), no node heterogeneity (SpeedJitter), no
// preemption (EvictionRate) and no capacity ramp (InitialSlots,
// SlotRampInterval). SpeedFactor is not 1, so the test also sees it scale
// every job.
const forkJoinDoc = `{
  "version": 1, "name": "fork-join",
  "sites": [{"name": "wide", "slots": 512, "speed_factor": 0.8, "speed_jitter": 0,
             "submit_interval": 0, "dispatch_mean": 0, "dispatch_cv": 0,
             "setup_mean": 0, "setup_cv": 0, "eviction_rate": 0,
             "initial_slots": 0, "slot_ramp_seconds": 0, "preinstalled": true}],
  "workload": {"preset": "paper", "n": [1, 10, 300], "seeds": [42]}
}`

// TestForkJoinMakespanIsCriticalPath: on forkJoinDoc's site every job starts
// the moment its last parent ends and runs for ExecSeconds × speed_factor, so
// a cell's makespan is the longest path through its member plan, weighted
// that way (the split, the slowest chunk and the merges).
func TestForkJoinMakespanIsCriticalPath(t *testing.T) {
	c := compileSource(t, "fork-join.json", []byte(forkJoinDoc))
	speed := *c.Doc.Sites[0].SpeedFactor
	for _, cell := range c.Cells {
		abstract, err := workflow.BuildDAX(workflow.BuilderConfig{
			N: cell.N, Workload: workflow.CustomWorkload(c.params, cell.Seed),
		})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := planner.New(abstract, c.world.Catalogs(), planner.Options{Site: "wide"})
		if err != nil {
			t.Fatal(err)
		}
		// Index positions are in topological order, so every parent's
		// finish is known before its children are reached.
		idx := plan.Indexed()
		start, finish := make([]float64, plan.Len()), make([]float64, plan.Len())
		var want float64
		for pos := range int32(plan.Len()) {
			finish[pos] = start[pos] + plan.JobAt(pos).ExecSeconds*speed
			want = max(want, finish[pos])
			for _, child := range idx.Children[pos] {
				start[child] = max(start[child], finish[pos])
			}
		}

		res, err := c.Simulate(cell)
		if err != nil {
			t.Fatal(err)
		}
		got, r := res.Makespan, res.Workflows[0].Result
		ok := r.Success && r.Retries == 0 && r.Evictions == 0
		res.Release()
		if !ok {
			t.Fatalf("n=%d: run failed or retried on a site without faults", cell.N)
		}
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("n=%d: makespan %v s, critical path × speed factor %v s", cell.N, got, want)
		}
	}
}
