package core

import (
	"fmt"
	"sync"

	"pegflow/internal/engine"
	"pegflow/internal/planner"
	"pegflow/internal/pool"
	"pegflow/internal/stats"
	"pegflow/internal/workflow"
)

// PaperNValues are the cluster counts evaluated in the paper.
var PaperNValues = []int{10, 100, 300, 500}

// platforms are the two execution platforms compared in the paper.
var platforms = []string{"sandhills", "osg"}

// Experiment configures a reproduction run.
type Experiment struct {
	// Seed drives every stochastic component.
	Seed uint64
	// RetryLimit is the DAGMan retry budget per job.
	RetryLimit int
	// Workload is the dataset; defaults to the paper-scale synthetic
	// Triticum urartu workload.
	Workload workflow.Workload
	// Workers bounds the number of concurrent simulations RunAll fans
	// out; <= 0 means runtime.NumCPU(), 1 forces the serial path. The
	// results are identical for any worker count.
	Workers int
	// Aggregate runs every engine in aggregation mode: logs fold into
	// fixed-size accumulators and streaming sketches instead of retaining
	// records — the memory-flat path for million-job runs. Summaries and
	// per-transformation tables are unaffected; consumers that need raw
	// records (timelines, log export) must run exact.
	Aggregate bool
}

// DefaultExperiment returns the paper-scale configuration.
func DefaultExperiment(seed uint64) *Experiment {
	return &Experiment{
		Seed:       seed,
		RetryLimit: 5,
		Workload:   workflow.PaperWorkload(seed),
	}
}

// RunResult bundles everything one workflow execution produced.
type RunResult struct {
	// Platform is "sandhills", "osg", or "serial".
	Platform string
	// N is the cluster count (0 for the serial baseline).
	N int
	// Result is the engine outcome (log, makespan, retries); nil for the
	// serial baseline, which is computed, not run.
	Result *engine.Result
	// Summary is the workflow-level statistics block.
	Summary stats.Summary
	// PerTask is the per-transformation breakdown (Fig. 5 panel rows); nil
	// for the serial baseline.
	PerTask []stats.TaskStats
}

// WallTime returns the workflow wall time in seconds.
func (r *RunResult) WallTime() float64 { return r.Summary.WallTime }

// paperWorld is the world of the built-in sites at their preset slot counts,
// which every Experiment runs on: built once per process, so its plan-cache
// keys are too.
var paperWorld = sync.OnceValues(func() (*workflow.World, error) {
	return workflow.NewWorld(workflow.PaperSites(0, 0))
})

// runWorkflow executes the blast2cap3 workflow with n cluster chunks on
// the named platform and returns its statistics.
func (e *Experiment) runWorkflow(platformName string, n int) (*RunResult, error) {
	world, err := paperWorld()
	if err != nil {
		return nil, err
	}
	return e.runOnSite(world, platformName, n, e.Workload, planner.ClusterOptions{})
}

// PlatformSeed mixes the chunk count n into seed, so the cells of an n-sweep
// draw independent platform noise while cells that differ only in policy
// share it. It is the only platform seed EnsembleExperiment.Run uses, so
// every front end that reaches it (Experiment, scenario cells, pegflow
// ensemble) seeds a (seed, n) run alike.
func PlatformSeed(seed uint64, n int) uint64 {
	return seed ^ (uint64(n) * 0x9e3779b97f4a7c15)
}

// onSite expresses a run of workload w with n chunks on one site of the
// world as an ensemble of one member on a pool of one site, so by
// ensemble.StageIn it plans no stage-in jobs (the paper's inputs are in
// place on both platforms). It is how every single-site experiment reaches
// the run path the scenario cells use; the member plan equals
// planner.New(BuildDAX(w, n)) on that site, clustered.
func (e *Experiment) onSite(world *workflow.World, site string, n int, w workflow.Workload, copts planner.ClusterOptions) *EnsembleExperiment {
	return &EnsembleExperiment{
		Seed:      e.Seed,
		Workflows: 1,
		N:         n,
		// One candidate site per job: the policy has nothing to choose.
		Policy:         planner.PolicyRoundRobin,
		Sites:          []string{site},
		World:          world,
		RetryLimit:     e.RetryLimit,
		Cluster:        copts,
		MemberWorkload: func(int) workflow.Workload { return w },
		Aggregate:      e.Aggregate,
	}
}

// runOnSite runs onSite's ensemble of one and reports its only member.
func (e *Experiment) runOnSite(world *workflow.World, site string, n int, w workflow.Workload, copts planner.ClusterOptions) (*RunResult, error) {
	res, err := e.onSite(world, site, n, w, copts).Run()
	if err != nil {
		return nil, err
	}
	return newRunResult(site, n, res.Workflows[0].Result), nil
}

func newRunResult(platformName string, n int, res *engine.Result) *RunResult {
	return &RunResult{
		Platform: platformName,
		N:        n,
		Result:   res,
		Summary:  stats.Summarize(res.Log, res.Makespan),
		PerTask:  stats.PerTransformation(res.Log),
	}
}

// serialResult is the serial blast2cap3 baseline on one dedicated Sandhills
// core (paper §V.B: "the running time was 100 hours"), in closed form: one
// job whose runtime is the cost model's SerialSeconds of w, as its profile
// carries it, on a slot of reference speed with nothing to wait for. A
// simulation of that one job adds nothing to the number.
func serialResult(w workflow.Workload) *RunResult {
	t := workflow.RoundMillis(workflow.DefaultCostModel().SerialSeconds(w))
	return &RunResult{
		Platform: "serial",
		Summary: stats.Summary{
			WallTime: t, CumulativeJobWallTime: t, CumulativeKickstart: t,
			Jobs: 1, Attempts: 1,
		},
	}
}

// AllResults holds the complete evaluation: the serial baseline plus every
// (platform, n) combination — the data behind Fig. 4 and Fig. 5.
type AllResults struct {
	Serial *RunResult
	// Runs is indexed by platform name then n.
	Runs map[string]map[int]*RunResult
}

// RunAll executes the full evaluation grid — every (platform, n) cell,
// across e.Workers concurrent simulations — beside the serial baseline.
// Each cell is an independent simulation seeded from (e.Seed, n), so the
// grid is embarrassingly parallel and the results match a one-worker run
// exactly; they are merged in deterministic grid order after collection.
func (e *Experiment) RunAll() (*AllResults, error) {
	type gridCell struct {
		platform string
		n        int
	}
	var cells []gridCell
	for _, p := range platforms {
		for _, n := range PaperNValues {
			cells = append(cells, gridCell{p, n})
		}
	}
	results := make([]*RunResult, len(cells))
	err := pool.ForEach(e.Workers, len(cells), func(i int) error {
		c := cells[i]
		r, err := e.runWorkflow(c.platform, c.n)
		if err != nil {
			return fmt.Errorf("core: %s n=%d: %w", c.platform, c.n, err)
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &AllResults{Serial: serialResult(e.Workload), Runs: make(map[string]map[int]*RunResult)}
	for i, c := range cells {
		if out.Runs[c.platform] == nil {
			out.Runs[c.platform] = make(map[int]*RunResult)
		}
		out.Runs[c.platform][c.n] = results[i]
	}
	return out, nil
}

// BestWorkflowWallTime returns the smallest workflow wall time in the grid.
func (a *AllResults) BestWorkflowWallTime() float64 {
	best := -1.0
	for _, byN := range a.Runs {
		for _, r := range byN {
			if best < 0 || r.WallTime() < best {
				best = r.WallTime()
			}
		}
	}
	return best
}
