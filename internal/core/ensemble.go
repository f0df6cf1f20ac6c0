// Ensemble experiments: many blast2cap3 workflows sharing a platform pool
// under one WMS, compared across site-selection policies — the multi-user,
// multi-backend regime the ROADMAP's north star demands and the natural
// extension of the paper's one-workflow-per-platform measurements.

package core

import (
	"fmt"
	"math"
	"sync"

	"pegflow/internal/dax"
	"pegflow/internal/engine"
	"pegflow/internal/ensemble"
	"pegflow/internal/fault"
	"pegflow/internal/lru"
	"pegflow/internal/planner"
	"pegflow/internal/pool"
	"pegflow/internal/sim/platform"
	"pegflow/internal/sim/rng"
	"pegflow/internal/stats"
	"pegflow/internal/workflow"
)

// EnsembleExperiment configures one ensemble run: N member workflows
// planned across a site set under a policy, executed on a shared pool.
type EnsembleExperiment struct {
	// Seed drives workload synthesis and retry-backoff jitter.
	Seed uint64
	// Workflows is the member count.
	Workflows int
	// N is the cluster-chunk count per member workflow.
	N int
	// Policy is the site-selection policy name (planner.PolicyNames).
	Policy string
	// World declares the sites: it supplies the catalogs members are planned
	// on, the key the plan cache knows them by, and the platform models.
	World *workflow.World
	// Sites names the sites of World to plan across and pool, in order.
	Sites []string
	// PlatformSeed seeds every site's platform model.
	PlatformSeed uint64
	// StageIn plans one synthesized stage-in job per site that consumes
	// the workflow's external inputs.
	StageIn bool
	// MaxInFlight is the ensemble-wide job throttle (0 = unlimited).
	MaxInFlight int
	// RetryLimit is the per-job retry budget.
	RetryLimit int
	// Cluster, when enabled, applies the post-planning clustering pass to
	// every member plan.
	Cluster planner.ClusterOptions
	// Failover gives members cross-site retry: jobs evicted or failed on
	// one pool site are re-resolved and resubmitted to a sibling.
	Failover bool
	// Workers bounds planning parallelism (PR-1 worker pool); results
	// are identical for any worker count.
	Workers int
	// MemberWorkload supplies the dataset of member i; nil derives a
	// reduced-scale synthetic workload from Seed+i.
	MemberWorkload func(i int) workflow.Workload
	// Faults, when set, is the compiled fault script installed on the
	// platform pool before execution (site outages, capacity steps,
	// eviction storms, dispatch blackouts).
	Faults *fault.Script
	// BackoffBase, when positive, gives every member retry-backoff with
	// full jitter: the k-th retry waits uniform(0, min(BackoffCap,
	// BackoffBase*2^(k-1))) virtual seconds. BackoffCap <= 0 leaves the
	// window uncapped. Jitter streams derive from Seed and the member
	// name, so runs reproduce exactly.
	BackoffBase float64
	BackoffCap  float64
	// Aggregate runs every member engine in aggregation mode (see
	// Experiment.Aggregate): member logs fold instead of retaining
	// records, and spent records recycle into the pool's arenas.
	Aggregate bool
}

// memberWorkload returns the dataset for member i.
func (e *EnsembleExperiment) memberWorkload(i int) workflow.Workload {
	if e.MemberWorkload != nil {
		return e.MemberWorkload(i)
	}
	// A reduced-scale cousin of the paper workload: same rank-size law,
	// ~20x fewer clusters, so an 8-member ensemble stays cheap to
	// simulate while keeping the heavy-tailed chunk-work distribution.
	return workflow.CustomWorkload(workflow.WorkloadParams{
		NumClusters:    2000,
		MaxClusterSize: 200,
		SizeExponent:   0.5,
		MeanReadLen:    1200,
	}, e.Seed+uint64(i))
}

// memberDAXKey fingerprints a member workflow's shape: synthesized datasets
// are fully determined by (params, seed) — the Params contract guarantees
// Clusters derive from Params — and the seed only moves the chunk runtimes,
// which every member plan overrides, so one abstract master per (params,
// scalar fields, n) serves every seed, policy comparison, sweep and scenario
// cell regardless of who supplied the workload.
type memberDAXKey struct {
	n                int
	params           workflow.WorkloadParams
	name             string
	totalTranscripts int
	transcriptBytes  int64
	alignmentBytes   int64
}

// cachedDAX is one member-DAX cache entry, built once under the sync.Once by
// whichever caller first runs it.
type cachedDAX struct {
	once sync.Once
	wf   *dax.Workflow
	err  error
}

// charge is the entry's share of shapeCacheBytes (see plancache.go).
func (k memberDAXKey) charge(*cachedDAX) int64 {
	return daxBytesPerChunk*int64(k.n) + shapeEntryBytes
}

var memberDAXCache = lru.New(shapeCacheBytes, 1, oneShard[memberDAXKey], memberDAXKey.charge)

// memberDAX serves the shape's abstract master, built from whichever seed
// asked first. The master is shared and read-only.
func memberDAX(key memberDAXKey, w workflow.Workload) (*dax.Workflow, error) {
	entry := entryOf(memberDAXCache, key)
	entry.once.Do(func() {
		daxBuilds.Add(1)
		entry.wf, entry.err = workflow.BuildDAX(workflow.BuilderConfig{N: key.n, Workload: w})
	})
	if entry.err != nil {
		return nil, entry.err
	}
	daxRetrievals.Add(1)
	return entry.wf, nil
}

// multiPlanKey is the content key of a resolved multi-site master: the
// member shape, whether stage-in jobs are planned, and the fingerprint of
// what planning reads from the catalogs (which covers the ordered site
// list). It holds no seed, and no policy either:
// placement is per retrieval.
type multiPlanKey struct {
	dax      memberDAXKey
	stageIn  bool
	catalogs string
}

// charge is the entry's share of shapeCacheBytes (see plancache.go).
func (k multiPlanKey) charge(*cachedMultiPlan) int64 {
	return masterBytesPerChunk*int64(k.dax.n) + shapeEntryBytes
}

// cachedMultiPlan is one multi-site cache entry; the master is resolved
// once under the sync.Once and only read afterwards (its memo of
// materialized master plans is its own, guarded business).
type cachedMultiPlan struct {
	once   sync.Once
	master *planner.Resolved
	// chunkPos lists the run_cap3 jobs' positions in the master, in chunk
	// order: where each member's seed-dependent runtimes go.
	chunkPos []int32
	err      error
}

var multiPlanCache = lru.New(shapeCacheBytes, 1, oneShard[multiPlanKey], multiPlanKey.charge)

// memberSource resolves member i: for a synthesized workload the shape's
// cached master plus this seed's chunk runtimes, rounded as the DAX runtime
// profiles round them, so that planning it equals planning the member's own
// BuildDAX; for a hand-built workload (no fingerprint to key on) a master
// resolved from scratch.
func (e *EnsembleExperiment) memberSource(i int, catalogs string) (ensemble.ResolvedSource, error) {
	src := ensemble.ResolvedSource{
		Name:       fmt.Sprintf("wf%02d", i),
		Priority:   e.Workflows - i,
		RetryLimit: e.RetryLimit,
	}
	w := e.memberWorkload(i)
	mopts := planner.MultiOptions{Sites: e.Sites, AddStageIn: e.StageIn}
	if !cacheable(w) {
		abstract, err := workflow.BuildDAX(workflow.BuilderConfig{N: e.N, Workload: w})
		if err != nil {
			return src, err
		}
		src.Master, err = planner.Resolve(abstract, e.World.Catalogs(), mopts)
		return src, err
	}
	key := multiPlanKey{
		dax: memberDAXKey{
			n:                e.N,
			params:           w.Params,
			name:             w.Name,
			totalTranscripts: w.TotalTranscripts,
			transcriptBytes:  w.TranscriptBytes,
			alignmentBytes:   w.AlignmentBytes,
		},
		stageIn:  mopts.AddStageIn,
		catalogs: catalogs,
	}
	entry := entryOf(multiPlanCache, key)
	entry.once.Do(func() {
		planBuilds.Add(1)
		entry.err = entry.build(key.dax, w, e.World.Catalogs(), mopts)
	})
	if entry.err != nil {
		return src, entry.err
	}
	planRetrievals.Add(1)
	chunks, err := roundedChunkSeconds(workflow.DefaultCostModel(), w, e.N)
	if err != nil {
		return src, err
	}
	src.Master, src.Pos, src.Seconds = entry.master, entry.chunkPos, chunks
	return src, nil
}

// build resolves the entry's master from the shape's abstract DAX and
// records where the chunk jobs sit in it.
func (c *cachedMultiPlan) build(dk memberDAXKey, w workflow.Workload, cats planner.Catalogs, mopts planner.MultiOptions) error {
	abstract, err := memberDAX(dk, w)
	if err != nil {
		return err
	}
	master, err := planner.Resolve(abstract, cats, mopts)
	if err != nil {
		return err
	}
	master.Materialized = func() { planShapes.Add(1) }
	chunkPos := make([]int32, dk.n)
	for k := range chunkPos {
		pos, ok := master.Position(workflow.ChunkJobID(k))
		if !ok {
			return fmt.Errorf("core: plan cache: job %q missing from resolved workflow", workflow.ChunkJobID(k))
		}
		chunkPos[k] = pos
	}
	c.master, c.chunkPos = master, chunkPos
	return nil
}

// plan resolves and plans every member across the worker pool. Members are
// admitted in index order; earlier members get higher ensemble priority
// (the Pegasus Ensemble Manager's priority knob).
func (e *EnsembleExperiment) plan() ([]ensemble.Spec, error) {
	if e.Workflows <= 0 {
		return nil, fmt.Errorf("core: non-positive ensemble size %d", e.Workflows)
	}
	if e.N <= 0 {
		return nil, fmt.Errorf("core: non-positive chunk count %d", e.N)
	}
	catalogs := e.World.Key(e.Sites)
	opts := ensemble.PlanOptions{
		Sites:    e.Sites,
		Policy:   e.Policy,
		Cluster:  e.Cluster,
		Failover: e.Failover,
	}
	specs := make([]ensemble.Spec, e.Workflows)
	err := pool.ForEach(e.Workers, e.Workflows, func(i int) error {
		src, err := e.memberSource(i, catalogs)
		if err != nil {
			return err
		}
		specs[i], err = ensemble.PlanMember(src, e.World.Catalogs(), opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	return specs, nil
}

// Run plans all members across the worker pool and executes the ensemble;
// Result.Report(e.Policy) renders the outcome as a report. It is the one
// place in this package that builds a platform pool and drives member
// engines over it: every experiment, single-site ones included
// (Experiment.runOnSite), ends here.
func (e *EnsembleExperiment) Run() (*ensemble.Result, error) {
	specs, err := e.plan()
	if err != nil {
		return nil, err
	}
	if e.BackoffBase > 0 {
		for i := range specs {
			specs[i].Backoff = engine.ExpBackoff(e.BackoffBase, e.BackoffCap,
				rng.New(e.Seed).Derive("backoff/"+specs[i].Name))
		}
	}
	cfgs, err := e.World.Configs(e.Sites, e.PlatformSeed)
	if err != nil {
		return nil, err
	}
	p, err := platform.NewMultiExecutor(cfgs)
	if err != nil {
		return nil, err
	}
	if err := p.InstallFaults(e.Faults); err != nil {
		return nil, err
	}
	return ensemble.Run(p, specs, ensemble.Options{MaxInFlight: e.MaxInFlight, Aggregate: e.Aggregate})
}

// Over points the experiment at a world of declared sites: planned across
// all of them in order, with stage-in jobs, and run on their platform models
// seeded with e.Seed.
func (e *EnsembleExperiment) Over(sites []workflow.Site) error {
	var err error
	if e.World, err = workflow.NewWorld(sites); err != nil {
		return err
	}
	e.StageIn, e.PlatformSeed = true, e.Seed
	for _, s := range sites {
		e.Sites = append(e.Sites, s.Platform.Name)
	}
	return nil
}

// HeteroBenchEnsemble is the policy benchmark fixture: a "fast" site with
// preinstalled software and a "slow" site whose nodes run 3x slower and
// must download a 150 MB stack per job. Round-robin spreads work evenly
// and pays the slow site's penalty on half the jobs; a data- or
// runtime-aware policy should beat it.
func HeteroBenchEnsemble(seed uint64, workflows, n int, policy string) (*EnsembleExperiment, error) {
	e := &EnsembleExperiment{Seed: seed, Workflows: workflows, N: n, Policy: policy, RetryLimit: 3}
	return e, e.Over([]workflow.Site{
		{
			Platform: platform.Config{
				Name: "fast", Slots: 32, SubmitInterval: 0.2,
				DispatchMean: 5, DispatchCV: 0.3,
				SpeedFactor: 1.0, SpeedJitter: 0.05,
			},
			StageInMBps: 200, Preinstalled: true,
		},
		{
			Platform: platform.Config{
				Name: "slow", Slots: 32, SubmitInterval: 0.3,
				DispatchMean: 60, DispatchCV: 0.8,
				SpeedFactor: 3.0, SpeedJitter: 0.2,
				SetupMean: 120, SetupCV: 0.5, SetupBytesPerSec: 5e6,
			},
			StageInMBps: 20, InstallBytes: 150 << 20,
		},
	})
}

// PolicyStats summarizes one policy over a multi-seed ensemble sweep.
type PolicyStats struct {
	// Policy is the site-selection policy name.
	Policy string
	// Runs is the number of seeds aggregated.
	Runs int
	// MeanMakespan, MinMakespan and MaxMakespan summarize ensemble wall
	// times across seeds.
	MeanMakespan, MinMakespan, MaxMakespan float64
	// MeanWorkflowMakespan averages member completion times across
	// seeds and members.
	MeanWorkflowMakespan float64
	// TotalRetries, TotalEvictions and TotalFailovers sum across seeds.
	TotalRetries, TotalEvictions, TotalFailovers int
}

// ComparePolicies runs `runs` seeded ensembles per policy over the PR-1
// worker pool and aggregates — the Monte Carlo comparison of
// site-selection policies. build constructs the experiment for one
// (seed, policy) cell; the sweep forces per-cell Workers to 1 since the
// grid itself is parallel. Output is identical for any worker count.
func ComparePolicies(baseSeed uint64, runs int, policies []string, workers int,
	build func(seed uint64, policy string) (*EnsembleExperiment, error)) ([]PolicyStats, error) {
	if runs <= 0 {
		return nil, fmt.Errorf("core: non-positive run count %d", runs)
	}
	if len(policies) == 0 {
		policies = planner.PolicyNames()
	}
	type cell struct {
		report *stats.EnsembleReport
	}
	cells := make([]cell, len(policies)*runs)
	err := pool.ForEach(workers, len(cells), func(i int) error {
		pi, rep := i/runs, i%runs
		e, err := build(baseSeed+uint64(rep), policies[pi])
		if err != nil {
			return err
		}
		e.Workers = 1
		res, err := e.Run()
		if err != nil {
			return fmt.Errorf("core: policy %s seed %d: %w", policies[pi], baseSeed+uint64(rep), err)
		}
		cells[i] = cell{report: res.Report(e.Policy)}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]PolicyStats, len(policies))
	for pi, policy := range policies {
		ps := PolicyStats{Policy: policy, Runs: runs, MinMakespan: math.Inf(1)}
		var sum, wfSum float64
		for rep := 0; rep < runs; rep++ {
			r := cells[pi*runs+rep].report
			sum += r.Makespan
			wfSum += r.MeanWorkflowMakespan
			if r.Makespan < ps.MinMakespan {
				ps.MinMakespan = r.Makespan
			}
			if r.Makespan > ps.MaxMakespan {
				ps.MaxMakespan = r.Makespan
			}
			ps.TotalRetries += r.TotalRetries
			ps.TotalEvictions += r.TotalEvictions
			ps.TotalFailovers += r.TotalFailovers
		}
		ps.MeanMakespan = sum / float64(runs)
		ps.MeanWorkflowMakespan = wfSum / float64(runs)
		out[pi] = ps
	}
	return out, nil
}
