// The cluster-size sweep: the new experiment axis the clustering tentpole
// opens. The paper attributes the Sandhills/OSG gap to per-job overhead —
// heavy-tailed dispatch latency plus a download/install on every job — and
// Pegasus's production answer is horizontal task clustering. Sweeping the
// cluster size on both platforms shows where the win lives (the
// overhead-dominated OSG) and where it turns into a loss (serializing
// payloads a dedicated cluster could have run in parallel).

package core

import (
	"encoding/json"
	"fmt"
	"io"

	"pegflow/internal/planner"
	"pegflow/internal/pool"
	"pegflow/internal/stats"
	"pegflow/internal/workflow"
)

// RunClustered executes the blast2cap3 workflow with n chunks on the named
// platform, with the post-planning clustering pass applied. Seeding is
// identical to RunWorkflow, so a run with disabled options reproduces
// RunWorkflow exactly and sweeps compare like with like.
func (e *Experiment) RunClustered(platformName string, n int, copts planner.ClusterOptions) (*RunResult, error) {
	world, err := paperWorld()
	if err != nil {
		return nil, err
	}
	return e.runOnSite(world, platformName, n, e.Workload, copts)
}

// ClusterPoint is one cell of the cluster-size sweep.
type ClusterPoint struct {
	// Platform is the simulated platform the cell ran on.
	Platform string `json:"platform"`
	// MaxTasksPerJob and TargetJobSeconds echo the clustering options of
	// the cell (both zero for the unclustered baseline).
	MaxTasksPerJob   int     `json:"max_tasks_per_job,omitempty"`
	TargetJobSeconds float64 `json:"target_job_seconds,omitempty"`
	// GridJobs is the number of executable jobs after clustering.
	GridJobs int `json:"grid_jobs"`
	// Makespan is the workflow wall time in simulated seconds.
	Makespan float64 `json:"makespan_s"`
	// ReductionPct is the makespan reduction vs. the platform's
	// unclustered baseline, in percent (negative = clustering hurt).
	ReductionPct float64 `json:"reduction_pct"`
	// MeanWaiting and MeanSetup are the run_cap3 per-task phase means —
	// the overhead clustering amortizes.
	MeanWaiting float64 `json:"mean_waiting_s"`
	MeanSetup   float64 `json:"mean_install_s"`
	// Retries and Evictions echo the engine counters.
	Retries   int `json:"retries"`
	Evictions int `json:"evictions"`
}

// DefaultClusterSweepN is the chunk count of the default sweep: the
// fine-decomposition regime (tasks well beyond the slot counts) where the
// paper's per-job overhead dominates the slot·seconds and clustering has
// something to amortize.
const DefaultClusterSweepN = 2000

// DefaultClusterSweepOptions are the swept clustering configurations: the
// unclustered baseline, fixed bundle sizes, and runtime-aware packing
// targets (which soak up small tasks without serializing the heavy ones).
func DefaultClusterSweepOptions() []planner.ClusterOptions {
	return []planner.ClusterOptions{
		{},
		{MaxTasksPerJob: 4},
		{MaxTasksPerJob: 8},
		{MaxTasksPerJob: 16},
		{TargetJobSeconds: 1800},
		{TargetJobSeconds: 3600},
	}
}

// ClusterSweep runs the cluster-size sweep: for every platform and every
// clustering configuration (the first must be the unclustered baseline; a
// zero ClusterOptions is prepended if missing), one full workflow
// simulation, fanned across the worker pool. Results are in (platform,
// option) order and identical for any worker count.
func ClusterSweep(seed uint64, n int, platforms []string, opts []planner.ClusterOptions, workers int) ([]ClusterPoint, error) {
	if len(platforms) == 0 {
		platforms = Platforms
	}
	if len(opts) == 0 {
		opts = DefaultClusterSweepOptions()
	}
	if opts[0].Enabled() {
		opts = append([]planner.ClusterOptions{{}}, opts...)
	}

	points := make([]ClusterPoint, len(platforms)*len(opts))
	err := pool.ForEach(workers, len(points), func(i int) error {
		p, copt := platforms[i/len(opts)], opts[i%len(opts)]
		e := DefaultExperiment(seed)
		r, err := e.RunClustered(p, n, copt)
		if err != nil {
			return fmt.Errorf("core: cluster sweep %s %+v: %w", p, copt, err)
		}
		pt := ClusterPoint{
			Platform:         p,
			MaxTasksPerJob:   copt.MaxTasksPerJob,
			TargetJobSeconds: copt.TargetJobSeconds,
			GridJobs:         len(r.Result.Completed) + len(r.Result.Unfinished),
			Makespan:         r.WallTime(),
			Retries:          r.Result.Retries,
			Evictions:        r.Result.Evictions,
		}
		for _, ts := range r.PerTask {
			if ts.Transformation == workflow.TrRunCAP3 {
				pt.MeanWaiting = ts.MeanWaiting
				pt.MeanSetup = ts.MeanSetup
			}
		}
		points[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	for pi := range platforms {
		base := points[pi*len(opts)].Makespan
		for oi := range opts {
			pt := &points[pi*len(opts)+oi]
			pt.ReductionPct = 100 * stats.Reduction(base, pt.Makespan)
		}
	}
	return points, nil
}

// ClusterBench is the serialized cluster-size sweep (BENCH_cluster.json) —
// the perf-trajectory artifact regenerated by `experiments -fig cluster`.
type ClusterBench struct {
	Experiment string         `json:"experiment"`
	Seed       uint64         `json:"seed"`
	N          int            `json:"n"`
	Points     []ClusterPoint `json:"points"`
}

// WriteJSON renders the bench artifact as deterministic indented JSON.
func (b *ClusterBench) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}
