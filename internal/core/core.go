package core

import (
	"fmt"

	"pegflow/examples/scenarios/figures"
	"pegflow/internal/engine"
	"pegflow/internal/scenario"
	"pegflow/internal/stats"
	"pegflow/internal/workflow"
)

// PaperNValues are the cluster counts evaluated in the paper.
var PaperNValues = []int{10, 100, 300, 500}

// Experiment configures a reproduction run.
type Experiment struct {
	// Seed drives every stochastic component: the paper grid runs at it as
	// `experiments -seed` does.
	Seed uint64
}

// DefaultExperiment returns the paper-scale configuration.
func DefaultExperiment(seed uint64) *Experiment {
	return &Experiment{Seed: seed}
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

// AllResults holds the complete evaluation: the serial baseline plus every
// (platform, n) combination — the data behind Fig. 4 and Fig. 5.
type AllResults struct {
	Serial *RunResult
	// Runs is indexed by platform name then n.
	Runs map[string]map[int]*RunResult
}

// RunAll runs the paper's evaluation grid, the embedded paper-grid.json at
// e.Seed, cell by cell through Compiled.Simulate, beside the serial
// baseline, which is workflow.PaperSerialSeconds: one job on one noiseless
// slot runs exactly its runtime, so it is computed, not run.
func (e *Experiment) RunAll() (*AllResults, error) {
	c, err := figures.Load("paper-grid.json", e.Seed)
	if err != nil {
		return nil, err
	}
	t := workflow.PaperSerialSeconds(e.Seed)
	out := &AllResults{
		Serial: &RunResult{Platform: "serial", Summary: stats.Summary{
			WallTime: t, CumulativeJobWallTime: t, CumulativeKickstart: t,
			Jobs: 1, Attempts: 1,
		}},
		Runs: make(map[string]map[int]*RunResult),
	}
	for _, cell := range c.Cells {
		site := cell.SiteSet[0]
		res, err := c.Simulate(cell)
		if err != nil {
			return nil, fmt.Errorf("core: %s n=%d: %w", site, cell.N, err)
		}
		// The result is kept, not released: RunResult.Result holds its log.
		r := res.Workflows[0].Result
		if out.Runs[site] == nil {
			out.Runs[site] = make(map[int]*RunResult)
		}
		out.Runs[site][cell.N] = &RunResult{
			Platform: site,
			N:        cell.N,
			Result:   r,
			Summary:  stats.Summarize(r.Log, r.Makespan),
			PerTask:  stats.PerTransformation(r.Log),
		}
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

// CacheStats is scenario.CacheStats, kept for bench/.
//
// Deprecated: use scenario.CacheStats. ROADMAP item 4(b)/18(b) removes it
// once bench/ names scenario's.
type CacheStats = scenario.CacheStats

// PlanCacheStats is scenario.PlanCacheStats, kept for bench/.
//
// Deprecated: use scenario.PlanCacheStats (item 4(b)/18(b) removes it).
func PlanCacheStats() CacheStats { return scenario.PlanCacheStats() }

// ResetPlanCache is scenario.ResetPlanCache, kept for bench/.
//
// Deprecated: use scenario.ResetPlanCache (item 4(b)/18(b) removes it).
func ResetPlanCache() { scenario.ResetPlanCache() }
