package main

import (
	"encoding/json"
	"fmt"
	"time"

	"pegflow/internal/catalog"
	"pegflow/internal/dax"
	"pegflow/internal/engine"
	"pegflow/internal/ensemble"
	"pegflow/internal/fault"
	"pegflow/internal/kickstart"
	"pegflow/internal/planner"
	"pegflow/internal/sim/platform"
	"pegflow/internal/sim/rng"
	"pegflow/internal/stats"
	"pegflow/internal/stats/quantile"
	"pegflow/internal/workflow"
)

// The replay: spans may not be placed inside the program yet, so the
// traced pass runs the pipeline of one cell by hand through the layers'
// exported functions and records a span around each call. A replay must
// produce the makespan the scenario front door reports for the same cell,
// or it is measuring a different program; the suite checks that.

// simExecutor is what both simulated executors offer the engine: the
// Executor contract plus the two optional capabilities engine.Run probes
// for with type assertions. The decorator below must forward all of them
// or the engine would silently take the capability-less path.
type simExecutor interface {
	engine.Executor
	engine.RecordRecycler
	engine.DelayedSubmitter
}

// timedExec splits engine.Run: time spent below the executor interface
// (platform model + DES kernel) is accumulated here, and what is left of
// the engine.run span is the engine's own time.
type timedExec struct {
	in    simExecutor
	spent time.Duration
	calls int
}

func (t *timedExec) Submit(job *planner.Job, attempt int) {
	start := time.Now()
	t.in.Submit(job, attempt)
	t.spent += time.Since(start)
	t.calls++
}

func (t *timedExec) SubmitAfter(job *planner.Job, attempt int, delay float64) {
	start := time.Now()
	t.in.SubmitAfter(job, attempt, delay)
	t.spent += time.Since(start)
	t.calls++
}

func (t *timedExec) Next() engine.Event {
	start := time.Now()
	ev := t.in.Next()
	t.spent += time.Since(start)
	t.calls++
	return ev
}

func (t *timedExec) Recycle(r *kickstart.Record) {
	start := time.Now()
	t.in.Recycle(r)
	t.spent += time.Since(start)
	t.calls++
}

func (t *timedExec) Now() float64 { return t.in.Now() }

// replayer runs stages under one root span and remembers their costs: wall
// time always, allocation counts only when the replay asks for them
// (reading them stops the world). It needs a tracer: self times come out
// of the spans.
type replayer struct {
	tr     *tracer
	first  int // index in tr.spans of the root span
	root   int
	allocs bool
	stages map[string]cost
	err    error
}

func newReplayer(tr *tracer, name string, allocs bool) *replayer {
	first := len(tr.spans)
	return &replayer{tr: tr, first: first, root: tr.start(0, name), allocs: allocs, stages: make(map[string]cost)}
}

// self returns the self time of the replay's spans by name: a stage's
// span minus what its child spans cover.
func (r *replayer) self() map[string]time.Duration {
	return selfByName(r.tr.spans[r.first:])
}

// stage runs fn as one traced stage and returns its span id. After a
// failure later stages are skipped and the first error is kept.
func (r *replayer) stage(name string, fn func() error) int {
	if r.err != nil {
		return 0
	}
	var before usage
	if r.allocs {
		before = snapshot()
	}
	start := time.Now()
	id := r.tr.start(r.root, name)
	err := fn()
	r.tr.end(id)
	c := cost{wall: time.Since(start)}
	if r.allocs {
		d := snapshot().since(before)
		c.mallocs, c.bytes = d.mallocs, d.bytes
	}
	r.stages[name] = r.stages[name].plus(c)
	if err != nil {
		r.err = fmt.Errorf("%s: %w", name, err)
	}
	return id
}

func (r *replayer) finish() error {
	r.tr.end(r.root)
	return r.err
}

// singleCell describes one cell of the plan-cached single-site path.
type singleCell struct {
	params      workflow.WorkloadParams
	site        string // "sandhills" or "osg"
	n           int
	seed        uint64
	sandSlots   int
	osgSlots    int
	retries     int
	aggregate   bool
	percentiles []float64
}

// singleReplay is what replaying a single-site cell produced.
type singleReplay struct {
	stages   map[string]cost
	makespan float64
	attempts int
	planJobs int
	// platformTime is the part of the engine.run span spent below the
	// executor interface (its aggregated child span); engineSelf is the
	// span's self time, the engine's own.
	platformTime, engineSelf time.Duration
	log                      *kickstart.Log
}

// warmStages are the replayed stages a warm cell executes; the others
// (workload, DAX, catalogs, planner.New) are paid once per plan key.
var warmStages = []string{
	"planner.clone", "workflow.chunk_seconds", "planner.cluster",
	"platform.new_executor", "engine.run",
	"stats.summarize", "stats.per_transformation", "stats.percentiles", "json.marshal",
}

func (s *singleReplay) warmTotal() (t cost) {
	for _, name := range warmStages {
		t = t.plus(s.stages[name])
	}
	return t
}

// replaySingle replays scenario.runExperimentCell → core.RunClustered for
// one cell. The master plan is built for this seed's workload directly, so
// its clone already carries the seed's chunk runtimes: the plan cache's
// clone-and-patch reproduces exactly that plan (core's own tests pin the
// byte identity), which is why the replay needs no patch stage and why
// core.patch is reported as the warm cell minus the replayed stages.
// ChunkSeconds is still called, as the patch step calls it, to time it.
func replaySingle(tr *tracer, c singleCell, allocs bool) (*singleReplay, error) {
	out := &singleReplay{}
	r := newReplayer(tr, "replay.single", allocs)
	out.stages = r.stages
	cost := workflow.DefaultCostModel()

	var w workflow.Workload
	r.stage("workflow.custom_workload", func() error {
		w = workflow.CustomWorkload(c.params, c.seed)
		return nil
	})
	var abstract *dax.Workflow
	r.stage("workflow.build_dax", func() (err error) {
		abstract, err = workflow.BuildDAX(workflow.BuilderConfig{N: c.n, Workload: w, Cost: cost})
		return err
	})
	var cats planner.Catalogs
	r.stage("workflow.paper_catalogs", func() (err error) {
		cats, err = workflow.PaperCatalogs(w, c.sandSlots, c.osgSlots)
		return err
	})
	var master *planner.Plan
	r.stage("planner.new", func() (err error) {
		master, err = planner.New(abstract, cats, planner.Options{Site: c.site})
		return err
	})
	var plan *planner.Plan
	r.stage("planner.clone", func() error {
		plan = master.Clone()
		return nil
	})
	r.stage("workflow.chunk_seconds", func() error {
		_, err := cost.ChunkSeconds(w, c.n)
		return err
	})
	r.stage("planner.cluster", func() (err error) {
		plan, err = planner.Cluster(plan, planner.ClusterOptions{})
		return err
	})
	var ex *platform.Executor
	r.stage("platform.new_executor", func() (err error) {
		cfg := platform.Sandhills(c.seed)
		cfg.Slots = c.sandSlots
		if c.site == "osg" {
			cfg = platform.OSG(c.seed)
			cfg.Slots = c.osgSlots
		}
		cfg.Seed = c.seed ^ (uint64(c.n) * 0x9e3779b97f4a7c15)
		ex, err = platform.NewExecutor(cfg)
		return err
	})
	var res *engine.Result
	var te *timedExec
	run := r.stage("engine.run", func() (err error) {
		te = &timedExec{in: ex}
		res, err = engine.Run(plan, te, engine.Options{RetryLimit: c.retries, Aggregate: c.aggregate})
		return err
	})
	if r.err != nil {
		return nil, r.finish()
	}
	tr.aggregate(run, "platform.executor", te.spent, te.calls)
	out.platformTime = te.spent
	out.log = res.Log
	out.makespan = res.Makespan
	out.planJobs = abstract.Len()

	var sum stats.Summary
	r.stage("stats.summarize", func() error {
		sum = stats.Summarize(res.Log, res.Makespan)
		return nil
	})
	out.attempts = sum.Attempts
	r.stage("stats.per_transformation", func() error {
		stats.PerTransformation(res.Log)
		return nil
	})
	row := map[string]any{
		"makespan_s": sum.WallTime, "cumulative_kickstart_s": sum.CumulativeKickstart,
		"jobs": sum.Jobs, "attempts": sum.Attempts, "retries": res.Retries,
		"evictions": res.Evictions, "failovers": res.Failovers, "success": res.Success,
		"n": c.n, "seed": c.seed, "sites": []string{c.site},
	}
	r.stage("stats.percentiles", func() error {
		var kp, wp []float64
		if agg := res.Log.Aggregates(); agg != nil {
			ks, ws := quantile.NewSketch(), quantile.NewSketch()
			ks.Merge(agg.ExecSketch)
			ws.Merge(agg.WaitSketch)
			kp, wp = quantile.Of(ks, c.percentiles...), quantile.Of(ws, c.percentiles...)
		} else {
			kp = stats.PercentilesOf(successValues(res.Log, (*kickstart.Record).Exec), c.percentiles...)
			wp = stats.PercentilesOf(successValues(res.Log, (*kickstart.Record).Waiting), c.percentiles...)
		}
		for i, p := range c.percentiles {
			row[fmt.Sprintf("kickstart_p%g", p)] = kp[i]
			row[fmt.Sprintf("waiting_p%g", p)] = wp[i]
		}
		return nil
	})
	r.stage("json.marshal", func() error {
		_, err := json.Marshal(row)
		return err
	})
	if !res.Success {
		r.err = fmt.Errorf("replayed cell did not complete: %d jobs unfinished", len(res.Unfinished))
	}
	err := r.finish()
	out.engineSelf = r.self()["engine.run"]
	return out, err
}

// successValues mirrors scenario's extraction of per-attempt values.
func successValues(log *kickstart.Log, f func(*kickstart.Record) float64) []float64 {
	var vs []float64
	for _, r := range log.Successes() {
		vs = append(vs, f(r))
	}
	return vs
}

// ensembleCell describes one cell of the general (ensemble) run path, in
// the shape of the failover_ensemble document: an allocation on the
// sandhills preset plus an opportunistic site on the osg preset.
type ensembleCell struct {
	params        workflow.WorkloadParams
	n             int
	seed          uint64
	workflows     int
	policy        string
	allocSlots    int
	spotSlots     int
	spotEviction  float64
	retries       int
	backoffBase   float64
	backoffCap    float64
	targetSeconds float64
	faults        []fault.Spec
}

// ensembleReplay is what replaying an ensemble cell produced.
type ensembleReplay struct {
	stages     map[string]cost
	makespan   float64
	attempts   int
	memberJobs int // abstract jobs summed over members
	// multiPlatform and multiAttempts come from the extra single-workflow
	// run on a MultiExecutor behind the timing decorator (ensemble.Run
	// takes the concrete pool type, so it cannot be decorated itself).
	multiPlatform time.Duration
	multiAttempts int
}

// ensembleCatalogs mirrors scenario.Compiled.buildCatalogs for the
// two-site pool of the failover_ensemble document.
func ensembleCatalogs(c ensembleCell) (planner.Catalogs, []platform.Config, error) {
	cats := planner.Catalogs{
		Sites:           catalog.NewSiteCatalog(),
		Transformations: catalog.NewTransformationCatalog(),
		Replicas:        catalog.NewReplicaCatalog(),
	}
	cfgSeed := c.seed ^ (uint64(c.n) * 0x9e3779b97f4a7c15)
	alloc := platform.Sandhills(cfgSeed)
	alloc.Name, alloc.Slots = "alloc", c.allocSlots
	spot := platform.OSG(cfgSeed)
	spot.Name, spot.Slots, spot.EvictionRate = "spot", c.spotSlots, c.spotEviction
	for _, s := range []struct {
		cfg     platform.Config
		shared  bool
		stageIn float64
	}{{alloc, true, 200}, {spot, false, 40}} {
		if err := cats.Sites.Add(&catalog.Site{
			Name: s.cfg.Name, Arch: "x86_64", OS: "linux",
			Slots: s.cfg.Slots, SpeedFactor: s.cfg.SpeedFactor,
			Heterogeneous:  s.cfg.SpeedJitter >= 0.2,
			SharedSoftware: s.shared, StageInMBps: s.stageIn,
		}); err != nil {
			return cats, nil, err
		}
		for _, name := range append(workflow.Transformations(), workflow.TrSerial) {
			t := &catalog.Transformation{Name: name, Site: s.cfg.Name}
			if s.shared {
				t.PFN, t.Installed = "/opt/pegflow/"+name, true
			} else {
				t.PFN = name + ".tar.gz"
				t.InstallBytes = workflow.PythonInstallBytes + workflow.BiopythonInstallBytes
				if name == workflow.TrRunCAP3 || name == workflow.TrSerial {
					t.InstallBytes += workflow.CAP3InstallBytes
				}
			}
			if err := cats.Transformations.Add(t); err != nil {
				return cats, nil, err
			}
		}
	}
	for _, lfn := range []string{"transcripts.fasta", "alignments.out"} {
		if err := cats.Replicas.Add(lfn, catalog.Replica{Site: "local", PFN: "/work/data/" + lfn}); err != nil {
			return cats, nil, err
		}
	}
	return cats, []platform.Config{alloc, spot}, nil
}

// replayEnsemble replays scenario.runEnsembleCell →
// core.EnsembleExperiment.Run for one cell, then times NewMulti, Cluster
// and a decorated MultiExecutor run on one member by themselves.
func replayEnsemble(tr *tracer, c ensembleCell) (*ensembleReplay, error) {
	out := &ensembleReplay{}
	r := newReplayer(tr, "replay.ensemble", false)
	out.stages = r.stages
	sites := []string{"alloc", "spot"}
	copts := planner.ClusterOptions{TargetJobSeconds: c.targetSeconds}

	var cats planner.Catalogs
	var cfgs []platform.Config
	r.stage("catalog.build", func() (err error) {
		cats, cfgs, err = ensembleCatalogs(c)
		return err
	})
	masters := make([]*dax.Workflow, c.workflows)
	srcs := make([]ensemble.WorkflowSource, c.workflows)
	for i := range srcs {
		i := i
		r.stage("workflow.build_dax", func() (err error) {
			w := workflow.CustomWorkload(c.params, c.seed+uint64(i))
			masters[i], err = workflow.BuildDAX(workflow.BuilderConfig{N: c.n, Workload: w})
			return err
		})
		r.stage("dax.clone", func() error {
			srcs[i] = ensemble.WorkflowSource{
				Name:       fmt.Sprintf("wf%02d", i),
				Abstract:   masters[i].Clone(),
				Priority:   c.workflows - i,
				RetryLimit: c.retries,
			}
			out.memberJobs += masters[i].Len()
			return nil
		})
	}
	var specs []ensemble.Spec
	r.stage("ensemble.plan_all", func() (err error) {
		specs, err = ensemble.PlanAll(srcs, cats, ensemble.PlanOptions{
			Sites: sites, Policy: c.policy, AddStageIn: true,
			Cluster: copts, Failover: true, Workers: 1,
		})
		return err
	})
	for i := range specs {
		specs[i].Backoff = engine.ExpBackoff(c.backoffBase, c.backoffCap,
			rng.New(c.seed).Derive("backoff/"+specs[i].Name))
	}
	var script *fault.Script
	r.stage("fault.compile", func() (err error) {
		script, err = fault.Compile(c.faults)
		return err
	})
	var pool *platform.MultiExecutor
	r.stage("platform.new_multi_executor", func() (err error) {
		if pool, err = platform.NewMultiExecutor(cfgs); err != nil {
			return err
		}
		return pool.InstallFaults(script)
	})
	var res *ensemble.Result
	r.stage("ensemble.run", func() (err error) {
		res, err = ensemble.Run(pool, specs, ensemble.Options{})
		return err
	})
	r.stage("ensemble.report", func() error {
		res.Report(c.policy)
		for _, w := range res.Workflows {
			stats.Summarize(w.Result.Log, w.Result.Makespan)
		}
		return nil
	})
	if r.err != nil {
		return nil, r.finish()
	}
	out.makespan = res.Makespan
	for _, w := range res.Workflows {
		out.attempts += w.Result.Log.Len()
	}

	// One member on its own: the planner stages PlanAll wraps, then a
	// failover run on a fresh pool behind the decorator.
	var plan *planner.Plan
	r.stage("planner.new_multi", func() (err error) {
		pol, err := planner.NewPolicy(c.policy)
		if err != nil {
			return err
		}
		plan, err = planner.NewMulti(masters[0].Clone(), cats, planner.MultiOptions{
			Sites: sites, Policy: pol, AddStageIn: true,
		})
		return err
	})
	r.stage("planner.cluster", func() (err error) {
		plan, err = planner.Cluster(plan, copts)
		return err
	})
	var te *timedExec
	var single *engine.Result
	run := r.stage("engine.run", func() error {
		solo, err := platform.NewMultiExecutor(cfgs)
		if err != nil {
			return err
		}
		fo, err := planner.NewFailover(cats, sites)
		if err != nil {
			return err
		}
		te = &timedExec{in: solo}
		single, err = engine.Run(plan, te, engine.Options{RetryLimit: c.retries, Retry: fo.Resite})
		return err
	})
	if r.err != nil {
		return nil, r.finish()
	}
	tr.aggregate(run, "platform.multi_executor", te.spent, te.calls)
	out.multiPlatform, out.multiAttempts = te.spent, single.Log.Len()
	return out, r.finish()
}
