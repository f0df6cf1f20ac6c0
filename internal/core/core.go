package core

import (
	"fmt"
	"sync"

	"pegflow/internal/engine"
	"pegflow/internal/planner"
	"pegflow/internal/pool"
	"pegflow/internal/sim/platform"
	"pegflow/internal/stats"
	"pegflow/internal/workflow"
)

// PaperNValues are the cluster counts evaluated in the paper.
var PaperNValues = []int{10, 100, 300, 500}

// Platforms are the two execution platforms compared in the paper.
var Platforms = []string{"sandhills", "osg"}

// ExtendedPlatforms adds the cloud platform of the paper's future work
// (§VII) to the comparison grid.
var ExtendedPlatforms = []string{"sandhills", "osg", "cloud"}

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
	// Result is the engine outcome (log, makespan, retries).
	Result *engine.Result
	// Summary is the workflow-level statistics block.
	Summary stats.Summary
	// PerTask is the per-transformation breakdown (Fig. 5 panel rows).
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

// RunWorkflow executes the blast2cap3 workflow with n cluster chunks on
// the named platform and returns its statistics.
func (e *Experiment) RunWorkflow(platformName string, n int) (*RunResult, error) {
	// Disabled clustering options leave the plan untouched, so this is
	// exactly the unclustered pipeline.
	return e.RunClustered(platformName, n, planner.ClusterOptions{})
}

// onSite expresses a run of workload w with n chunks on one site of the
// world as an ensemble of one member on a pool of one site, planned without
// stage-in jobs (the paper's inputs are in place on both platforms). It is
// how every single-site experiment reaches the run path the scenario cells
// use; the member plan equals planner.New(BuildDAX(w, n)) on that site,
// clustered.
func (e *Experiment) onSite(world *workflow.World, site string, n int, w workflow.Workload, copts planner.ClusterOptions) *EnsembleExperiment {
	return &EnsembleExperiment{
		Seed:      e.Seed,
		Workflows: 1,
		N:         n,
		// One candidate site per job: the policy has nothing to choose.
		Policy: planner.PolicyRoundRobin,
		Sites:  []string{site},
		World:  world,
		// n is mixed into the seed so sweep cells draw independent platform
		// noise.
		PlatformSeed:   e.Seed ^ (uint64(n) * 0x9e3779b97f4a7c15),
		RetryLimit:     e.RetryLimit,
		Cluster:        copts,
		Workers:        1,
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

// RunSerial executes the serial blast2cap3 baseline on a single dedicated
// Sandhills core (paper §V.B: "the running time was 100 hours"). Its
// one-job plan is built directly and run on a bare engine: the only caller
// of engine.Run in this package.
func (e *Experiment) RunSerial() (*RunResult, error) {
	world, err := paperWorld()
	if err != nil {
		return nil, err
	}
	abstract, err := workflow.BuildSerialDAX(e.Workload, workflow.CostModel{})
	if err != nil {
		return nil, err
	}
	plan, err := planner.New(abstract, world.Catalogs(), planner.Options{Site: "sandhills"})
	if err != nil {
		return nil, err
	}
	// A single interactive node: no dispatch noise, one slot.
	cfg := platform.Config{Name: "sandhills", Slots: 1, SpeedFactor: 1.0, Seed: e.Seed}
	ex, err := platform.NewExecutor(cfg)
	if err != nil {
		return nil, err
	}
	res, err := engine.Run(plan, ex, engine.Options{Aggregate: e.Aggregate})
	if err != nil {
		return nil, err
	}
	return newRunResult("serial", 0, res), nil
}

// AllResults holds the complete evaluation: the serial baseline plus every
// (platform, n) combination — the data behind Fig. 4 and Fig. 5.
type AllResults struct {
	Serial *RunResult
	// Runs is indexed by platform name then n.
	Runs map[string]map[int]*RunResult
}

// RunAll executes the full evaluation grid — the serial baseline plus
// every (platform, n) cell — across e.Workers concurrent simulations.
// Each cell is an independent simulation seeded from (e.Seed, n), so the
// grid is embarrassingly parallel and the results match the serial path
// exactly; they are merged in deterministic grid order after collection.
func (e *Experiment) RunAll() (*AllResults, error) {
	type gridCell struct {
		platform string
		n        int
	}
	var cells []gridCell
	for _, p := range Platforms {
		for _, n := range PaperNValues {
			cells = append(cells, gridCell{p, n})
		}
	}
	results := make([]*RunResult, 1+len(cells))
	err := pool.ForEach(e.Workers, 1+len(cells), func(i int) error {
		if i == 0 {
			ser, err := e.RunSerial()
			if err != nil {
				return err
			}
			results[0] = ser
			return nil
		}
		c := cells[i-1]
		r, err := e.RunWorkflow(c.platform, c.n)
		if err != nil {
			return fmt.Errorf("core: %s n=%d: %w", c.platform, c.n, err)
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &AllResults{Serial: results[0], Runs: make(map[string]map[int]*RunResult)}
	for i, c := range cells {
		if out.Runs[c.platform] == nil {
			out.Runs[c.platform] = make(map[int]*RunResult)
		}
		out.Runs[c.platform][c.n] = results[i+1]
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
