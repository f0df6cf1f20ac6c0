// The run path: every cell is an EnsembleExperiment — many blast2cap3
// workflows sharing a platform pool under one WMS, planned across a site set
// under a policy. A single workflow is an ensemble of one and a single site
// a pool of one.

package scenario

import (
	"fmt"
	"sync"

	"pegflow/internal/dax"
	"pegflow/internal/engine"
	"pegflow/internal/ensemble"
	"pegflow/internal/fault"
	"pegflow/internal/lru"
	"pegflow/internal/planner"
	"pegflow/internal/sim/platform"
	"pegflow/internal/sim/rng"
	"pegflow/internal/workflow"
)

// EnsembleExperiment configures one ensemble run: N member workflows
// planned across a site set under a policy, executed on a shared pool.
type EnsembleExperiment struct {
	// Seed drives workload synthesis and retry-backoff jitter, and with N
	// seeds the platform models (platformSeed).
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
	// MemberWorkload supplies the dataset of member i.
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
	// Aggregate runs every member engine in aggregation mode: member logs
	// fold into fixed-size accumulators and streaming sketches instead of
	// retaining records, and spent records recycle into the pool's arenas.
	// Summaries and per-transformation tables are unaffected.
	Aggregate bool
}

// platformSeed mixes the chunk count n into seed, so the cells of an n-sweep
// draw independent platform noise while cells that differ only in policy
// share it. It is the only platform seed EnsembleExperiment.Run uses, so
// every front end that reaches it (scenario cells, pegflow ensemble, core's
// paper grid) seeds a (seed, n) run alike.
func platformSeed(seed uint64, n int) uint64 {
	return seed ^ (uint64(n) * 0x9e3779b97f4a7c15)
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
// member shape, whether stage-in jobs are planned (ensemble.StageIn of the
// experiment's sites), and the fingerprint of
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
	w := e.MemberWorkload(i)
	mopts := planner.MultiOptions{Sites: e.Sites, AddStageIn: ensemble.StageIn(e.Sites)}
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
			return fmt.Errorf("scenario: plan cache: job %q missing from resolved workflow", workflow.ChunkJobID(k))
		}
		chunkPos[k] = pos
	}
	c.master, c.chunkPos = master, chunkPos
	return nil
}

// plan resolves and plans every member. Members are admitted in index
// order; earlier members get higher ensemble priority (the Pegasus Ensemble
// Manager's priority knob).
func (e *EnsembleExperiment) plan() ([]ensemble.Spec, error) {
	if e.Workflows <= 0 {
		return nil, fmt.Errorf("scenario: non-positive ensemble size %d", e.Workflows)
	}
	if e.N <= 0 {
		return nil, fmt.Errorf("scenario: non-positive chunk count %d", e.N)
	}
	catalogs := e.World.Key(e.Sites)
	opts := ensemble.PlanOptions{
		Sites:    e.Sites,
		Policy:   e.Policy,
		Cluster:  e.Cluster,
		Failover: e.Failover,
	}
	specs := make([]ensemble.Spec, e.Workflows)
	for i := range specs {
		src, err := e.memberSource(i, catalogs)
		if err != nil {
			return nil, err
		}
		if specs[i], err = ensemble.PlanMember(src, e.World.Catalogs(), opts); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// Run plans all members and executes the ensemble on
// the sites' platform models seeded with platformSeed(e.Seed, e.N);
// Result.Report(e.Policy) renders the outcome as a report. It is the one
// place in the program that builds a platform pool for a simulated run and
// drives member engines over it: every cell (Compiled.Simulate), single-site
// ones included, ends here.
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
	cfgs, err := e.World.Configs(e.Sites, platformSeed(e.Seed, e.N))
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
