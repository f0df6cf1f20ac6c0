package scenario

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"strings"
	"testing"

	"pegflow/internal/engine"
	"pegflow/internal/planner"
	"pegflow/internal/sim/platform"
	"pegflow/internal/stats"
	"pegflow/internal/workflow"
)

// paperWorld is the world of the built-in sites at their preset slot
// counts, the one paper-grid.json's cells run on.
func paperWorld(t testing.TB) *workflow.World {
	t.Helper()
	world, err := workflow.NewWorld(workflow.PaperSites(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	return world
}

// onSite is workload w at seed with n chunks on one site of world, clustered
// by copts, as a single-site cell runs it: an ensemble of one member on a
// pool of one site, with the paper's retry budget.
func onSite(world *workflow.World, seed uint64, w workflow.Workload, site string, n int, copts planner.ClusterOptions) *EnsembleExperiment {
	return &EnsembleExperiment{
		Seed:      seed,
		Workflows: 1,
		N:         n,
		// One candidate site per job: the policy has nothing to choose.
		Policy:         planner.PolicyRoundRobin,
		Sites:          []string{site},
		World:          world,
		RetryLimit:     5,
		Cluster:        copts,
		MemberWorkload: func(int) workflow.Workload { return w },
	}
}

// paperOnSite is onSite for the paper workload at seed on the paper world.
func paperOnSite(t testing.TB, seed uint64, site string, n int, copts planner.ClusterOptions) *EnsembleExperiment {
	t.Helper()
	return onSite(paperWorld(t), seed, workflow.PaperWorkload(seed), site, n, copts)
}

// uncached clears w's synthesis fingerprint, which forces every plan of it
// to be resolved from its own DAX — no cached master, no runtime patch — the
// reference the cached runs are compared with.
func uncached(w workflow.Workload) workflow.Workload {
	w.Params = workflow.WorkloadParams{}
	return w
}

// memberRun is what a single-site run reports: its one member's engine
// outcome, workflow summary and per-transformation tables.
type memberRun struct {
	Result  *engine.Result
	Summary stats.Summary
	PerTask []stats.TaskStats
}

// runMember runs e and reports its first member.
func runMember(e *EnsembleExperiment) (*memberRun, error) {
	res, err := e.Run()
	if err != nil {
		return nil, err
	}
	r := res.Workflows[0].Result
	return &memberRun{Result: r, Summary: stats.Summarize(r.Log, r.Makespan), PerTask: stats.PerTransformation(r.Log)}, nil
}

// mustRunMember is runMember failing t on an error.
func mustRunMember(t testing.TB, e *EnsembleExperiment) *memberRun {
	t.Helper()
	r, err := runMember(e)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func findTask(rows []stats.TaskStats, name string) *stats.TaskStats {
	for i := range rows {
		if rows[i].Transformation == name {
			return &rows[i]
		}
	}
	return nil
}

// reducedMembers gives member i the tests' ensemble workload seeded seed+i:
// a reduced-scale cousin of the paper workload (same rank-size law, ~20x
// fewer clusters, the parameters of `pegflow ensemble`), so an 8-member
// ensemble stays cheap to simulate while keeping the heavy-tailed chunk-work
// distribution.
func reducedMembers(seed uint64) func(int) workflow.Workload {
	return func(i int) workflow.Workload {
		return workflow.CustomWorkload(workflow.WorkloadParams{
			NumClusters: 2000, MaxClusterSize: 200, SizeExponent: 0.5, MeanReadLen: 1200,
		}, seed+uint64(i))
	}
}

// over is an ensemble of reducedMembers planned across every site of the
// world of sites, in order.
func over(e *EnsembleExperiment, sites []workflow.Site) (*EnsembleExperiment, error) {
	world, err := workflow.NewWorld(sites)
	if err != nil {
		return nil, err
	}
	e.World, e.MemberWorkload = world, reducedMembers(e.Seed)
	for _, s := range sites {
		e.Sites = append(e.Sites, s.Platform.Name)
	}
	return e, nil
}

// paperEnsemble is the tests' ensemble over the paper's two-site world
// (Sandhills + OSG).
func paperEnsemble(seed uint64, workflows, n int, policy string) (*EnsembleExperiment, error) {
	sites, err := workflow.PresetSites([]string{"sandhills", "osg"})
	if err != nil {
		return nil, err
	}
	return over(&EnsembleExperiment{Seed: seed, Workflows: workflows, N: n, Policy: policy, RetryLimit: 5}, sites)
}

// heteroBenchEnsemble is the tests' two-site fixture where the cost policies
// split work by runtime: a "fast" site with preinstalled software and a
// "slow" site whose nodes run 3x slower and must download a 150 MB stack per
// job (the sites of examples/scenarios/figures/ensemble.json).
func heteroBenchEnsemble(seed uint64, workflows, n int, policy string) (*EnsembleExperiment, error) {
	return over(&EnsembleExperiment{Seed: seed, Workflows: workflows, N: n, Policy: policy, RetryLimit: 3}, []workflow.Site{
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

func heteroExperiment(t testing.TB, seed uint64, policy string) *EnsembleExperiment {
	e, err := heteroBenchEnsemble(seed, 8, 24, policy)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// runReport runs the experiment and renders its report.
func runReport(t testing.TB, e *EnsembleExperiment) *stats.EnsembleReport {
	t.Helper()
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res.Report(e.Policy)
}

// The paper-world ensemble (Sandhills + OSG) runs to completion and its
// JSON report is reproducible.
func TestPaperEnsembleReproducible(t *testing.T) {
	var first []byte
	for i := 0; i < 2; i++ {
		e, err := paperEnsemble(42, 8, 20, planner.PolicyDataAware)
		if err != nil {
			t.Fatal(err)
		}
		report := runReport(t, e)
		for _, w := range report.Workflows {
			if !w.Success {
				t.Errorf("workflow %s incomplete", w.Name)
			}
		}
		var buf bytes.Buffer
		if err := report.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = buf.Bytes()
		} else if !bytes.Equal(first, buf.Bytes()) {
			t.Errorf("paper ensemble report differs between runs:\n%s\n---\n%s", first, buf.Bytes())
		}
	}
}

// Fixed seed ⇒ byte-identical JSON reports with clustering and failover
// enabled, across repeated runs.
func TestClusteredFailoverEnsembleDeterministic(t *testing.T) {
	run := func() []byte {
		exp, err := paperEnsemble(9, 4, 40, planner.PolicyDataAware)
		if err != nil {
			t.Fatal(err)
		}
		exp.Cluster = planner.ClusterOptions{MaxTasksPerJob: 6}
		exp.Failover = true
		report := runReport(t, exp)
		var buf bytes.Buffer
		if err := report.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(run(), run()) {
		t.Error("same seed: reports differ byte-for-byte")
	}
}

// BenchmarkEnsemble measures an 8-workflow, 2-site ensemble per policy on
// the heterogeneous fixture — the data-aware row should show the smaller
// reported makespan (exposed via the makespan_s metric). Each policy also
// runs a clustered+failover variant, whose failovers surface via the
// failovers metric.
func BenchmarkEnsemble(b *testing.B) {
	variants := []struct {
		name     string
		cluster  planner.ClusterOptions
		failover bool
	}{
		{"plain", planner.ClusterOptions{}, false},
		{"cluster4-failover", planner.ClusterOptions{MaxTasksPerJob: 4}, true},
	}
	for _, policy := range planner.PolicyNames() {
		for _, v := range variants {
			b.Run(policy+"/"+v.name, func(b *testing.B) {
				var makespan float64
				var failovers int
				for i := 0; i < b.N; i++ {
					e := heteroExperiment(b, 42, policy)
					e.Cluster = v.cluster
					e.Failover = v.failover
					report := runReport(b, e)
					makespan = report.Makespan
					failovers = report.TotalFailovers
				}
				b.ReportMetric(makespan, "makespan_s")
				b.ReportMetric(float64(failovers), "failovers")
			})
		}
	}
}

// TestUnknownPlatformRejected: a site the world does not declare is an
// error, not an empty pool.
func TestUnknownPlatformRejected(t *testing.T) {
	if _, err := paperOnSite(t, 1, "ec2", 10, planner.ClusterOptions{}).Run(); err == nil {
		t.Error("unknown platform accepted")
	}
}

// TestOneEngineDriverInScenario parses the package's non-test sources: no
// engine.Run call and one platform.NewMultiExecutor call
// (EnsembleExperiment.Run), so no cell has a run path of its own.
func TestOneEngineDriverInScenario(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	calls := map[string]int{}
	for _, pkg := range pkgs {
		ast.Inspect(pkg, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok {
						calls[x.Name+"."+sel.Sel.Name]++
					}
				}
			}
			return true
		})
	}
	for call, want := range map[string]int{"engine.Run": 0, "platform.NewMultiExecutor": 1} {
		if calls[call] != want {
			t.Errorf("%d %s calls in non-test scenario, want %d", calls[call], call, want)
		}
	}
}

// TestSummaryRetriesMatchEngine: the retries a workflow summary reports
// are the re-submissions the engine made, on unclustered and clustered
// OSG runs and on a clustered failover ensemble across Sandhills and
// OSG, in both log modes. A composite job's failure records carry the
// composite's ID and its landing's records each member's, so a summary
// keyed by job ID alone counts a retried-then-landed composite as never
// finished.
func TestSummaryRetriesMatchEngine(t *testing.T) {
	world := paperWorld(t)
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
			for _, copts := range clusterings {
				e := onSite(world, seed, workflow.PaperWorkload(seed), "osg", 300, copts)
				e.Aggregate = aggregate
				r := mustRunMember(t, e)
				check(fmt.Sprintf("aggregate=%v seed %d osg n=300 %+v", aggregate, seed, copts), r.Result)
				runs++
				if r.Result.Retries > 0 {
					retried++
				}
			}
			ens, err := paperEnsemble(seed, 4, 40, planner.PolicyDataAware)
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

// smallOnSite is a reduced-scale single-site run cheap enough to run twice
// (exact and aggregated) per test.
func smallOnSite(t testing.TB, seed uint64, site string, n int, copts planner.ClusterOptions, aggregate bool) *EnsembleExperiment {
	t.Helper()
	w := workflow.CustomWorkload(workflow.WorkloadParams{
		NumClusters:    800,
		MaxClusterSize: 120,
		SizeExponent:   0.5,
		MeanReadLen:    1000,
	}, seed)
	e := onSite(paperWorld(t), seed, w, site, n, copts)
	e.Aggregate = aggregate
	return e
}

// TestAggregateRunParity is the end-to-end acceptance check for
// aggregation through the real platform simulation: an aggregated run
// must reproduce the exact run's makespan, summary and per-task tables
// bit for bit — record recycling must not perturb the simulation, and
// the folded accumulators must agree with the retained-record math.
func TestAggregateRunParity(t *testing.T) {
	for _, site := range []string{"sandhills", "osg"} {
		exact := mustRunMember(t, smallOnSite(t, 42, site, 60, planner.ClusterOptions{}, false))
		agg := mustRunMember(t, smallOnSite(t, 42, site, 60, planner.ClusterOptions{}, true))
		if exact.Result.Makespan != agg.Result.Makespan {
			t.Errorf("%s: makespan diverged: exact %v, agg %v",
				site, exact.Result.Makespan, agg.Result.Makespan)
		}
		if exact.Result.Retries != agg.Result.Retries || exact.Result.Evictions != agg.Result.Evictions {
			t.Errorf("%s: engine counters diverged: exact %+v, agg %+v",
				site, exact.Result, agg.Result)
		}
		if exact.Summary != agg.Summary {
			t.Errorf("%s: summary diverged:\nexact %+v\nagg   %+v", site, exact.Summary, agg.Summary)
		}
		if !reflect.DeepEqual(exact.PerTask, agg.PerTask) {
			t.Errorf("%s: per-task stats diverged:\nexact %+v\nagg   %+v", site, exact.PerTask, agg.PerTask)
		}
		if recs := agg.Result.Log.Records(); recs != nil {
			t.Errorf("%s: aggregated run retained %d records", site, len(recs))
		}
		if agg.Result.Log.Len() != exact.Result.Log.Len() {
			t.Errorf("%s: attempt counts diverged: exact %d, agg %d",
				site, exact.Result.Log.Len(), agg.Result.Log.Len())
		}
	}
}

// TestAggregateClusteredRunParity covers the composite-record path: a
// clustered plan emits per-member records through Event.Members, which
// the engine must fold and recycle identically to the retained path.
func TestAggregateClusteredRunParity(t *testing.T) {
	copts := planner.ClusterOptions{MaxTasksPerJob: 8}
	exact := mustRunMember(t, smallOnSite(t, 7, "osg", 60, copts, false))
	agg := mustRunMember(t, smallOnSite(t, 7, "osg", 60, copts, true))
	if exact.Summary != agg.Summary {
		t.Errorf("clustered summary diverged:\nexact %+v\nagg   %+v", exact.Summary, agg.Summary)
	}
	if !reflect.DeepEqual(exact.PerTask, agg.PerTask) {
		t.Errorf("clustered per-task stats diverged:\nexact %+v\nagg   %+v", exact.PerTask, agg.PerTask)
	}
}

// TestAggregateEnsembleParity covers the multi-site pool: member engines
// recycle records back through the ensemble into the arena of the site
// that allocated them. The ensemble report must match the exact run's
// exactly.
func TestAggregateEnsembleParity(t *testing.T) {
	run := func(aggregate bool) *EnsembleExperiment {
		e, err := heteroBenchEnsemble(42, 4, 12, planner.PolicyDataAware)
		if err != nil {
			t.Fatal(err)
		}
		e.Aggregate = aggregate
		return e
	}
	exact, agg := runReport(t, run(false)), runReport(t, run(true))
	if !reflect.DeepEqual(exact, agg) {
		t.Errorf("ensemble report diverged:\nexact %+v\nagg   %+v", exact, agg)
	}
}
