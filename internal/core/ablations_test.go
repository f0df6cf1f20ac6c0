package core

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"reflect"
	"strings"
	"testing"

	"pegflow/internal/catalog"
	"pegflow/internal/engine"
	"pegflow/internal/planner"
	"pegflow/internal/sim/platform"
	"pegflow/internal/workflow"
)

func TestVariantPreinstallOSGRemovesInstallTime(t *testing.T) {
	e := DefaultExperiment(canonicalSeed)
	base, err := e.RunWorkflow("osg", 100)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := e.RunVariant("osg", 100, Variant{PreinstallOSG: true})
	if err != nil {
		t.Fatal(err)
	}
	baseCap3 := findTask(base.PerTask, workflow.TrRunCAP3)
	preCap3 := findTask(pre.PerTask, workflow.TrRunCAP3)
	if baseCap3.MeanSetup <= 0 {
		t.Error("baseline OSG has no install time")
	}
	if preCap3.MeanSetup != 0 {
		t.Errorf("preinstalled OSG install time = %v, want 0", preCap3.MeanSetup)
	}
	if pre.WallTime() >= base.WallTime() {
		t.Errorf("preinstalling did not help: %v vs %v", pre.WallTime(), base.WallTime())
	}
}

func TestVariantDisablePreemptionStopsEvictions(t *testing.T) {
	// Averaged over seeds, disabling the hazard removes evictions and
	// reduces wall time at n=10 where retries are expensive.
	var withEv, withoutEv float64
	totalEv := 0
	for s := uint64(0); s < 5; s++ {
		e := DefaultExperiment(canonicalSeed + s)
		a, err := e.RunWorkflow("osg", 10)
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.RunVariant("osg", 10, Variant{DisablePreemption: true})
		if err != nil {
			t.Fatal(err)
		}
		if b.Result.Evictions != 0 {
			t.Errorf("seed %d: evictions with hazard disabled: %d", s, b.Result.Evictions)
		}
		withEv += a.WallTime()
		withoutEv += b.WallTime()
		totalEv += a.Result.Evictions
	}
	if totalEv == 0 {
		t.Error("no evictions across 5 seeds at n=10; hazard inert")
	}
	if withoutEv >= withEv {
		t.Errorf("mean wall without evictions (%v) not below with (%v)", withoutEv/5, withEv/5)
	}
}

// directVariantRun is the pipeline RunVariant had to itself before it became
// an edit of the declared site handed to the one run path, kept here as the
// reference: the workload's own DAX, freshly built paper catalogs — for A1
// with the site's transformations marked installed — planner.New, one bare
// executor — for A2 with the eviction hazard zeroed — and engine.Run.
func directVariantRun(t *testing.T, e *Experiment, platformName string, n int, v Variant) *engine.Result {
	t.Helper()
	var cfg platform.Config
	for _, s := range workflow.PaperSites(0, 0) {
		if s.Platform.Name == platformName {
			cfg = s.Config(e.Seed ^ (uint64(n) * 0x9e3779b97f4a7c15))
		}
	}
	if v.DisablePreemption {
		cfg.EvictionRate = 0
	}
	abstract, err := workflow.BuildDAX(workflow.BuilderConfig{N: n, Workload: e.Workload})
	if err != nil {
		t.Fatal(err)
	}
	cats, err := workflow.PaperCatalogs(e.Workload, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.PreinstallOSG {
		cats.Transformations = preinstalledEverywhere(cats, platformName)
	}
	plan, err := planner.New(abstract, cats, planner.Options{Site: platformName})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := platform.NewExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex.Reserve(plan.Graph().Len())
	res, err := engine.Run(plan, ex, engine.Options{RetryLimit: e.RetryLimit})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// preinstalledEverywhere rebuilds the transformation catalog with every
// entry at the given site marked installed: the catalog edit RunVariant made
// before a variant became an edit of the declared site.
func preinstalledEverywhere(cats planner.Catalogs, site string) *catalog.TransformationCatalog {
	out := catalog.NewTransformationCatalog()
	for _, name := range cats.Transformations.Names() {
		for _, s := range cats.Sites.Names() {
			t, err := cats.Transformations.Lookup(name, s)
			if err != nil {
				continue
			}
			cp := *t
			if s == site {
				cp.Installed = true
				cp.InstallBytes = 0
			}
			if err := out.Add(&cp); err != nil {
				panic(fmt.Sprintf("core: rebuilding catalog: %v", err))
			}
		}
	}
	return out
}

// TestVariantPreinstallEqualsDirectPipeline: A1 and A2 through the one run path — the
// edited site's world under its own plan-cache key, a pool of one — are the
// direct pipeline's runs record for record, cold and warm.
func TestVariantPreinstallEqualsDirectPipeline(t *testing.T) {
	logBytes := func(res *engine.Result) []byte {
		var buf bytes.Buffer
		if err := res.Log.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ResetPlanCache()
	for _, v := range []Variant{{PreinstallOSG: true}, {DisablePreemption: true}, {PreinstallOSG: true, DisablePreemption: true}} {
		for _, n := range []int{10, 100, 100} {
			e := DefaultExperiment(canonicalSeed)
			want := directVariantRun(t, e, "osg", n, v)
			got, err := e.RunVariant("osg", n, v)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(logBytes(want), logBytes(got.Result)) {
				t.Errorf("%+v n=%d: attempt logs differ", v, n)
			}
			if want.Makespan != got.Result.Makespan || want.Retries != got.Result.Retries ||
				want.Evictions != got.Result.Evictions || want.Success != got.Result.Success {
				t.Errorf("%+v n=%d: direct pipeline %v s, %d retries, %d evictions; one path %v s, %d, %d",
					v, n, want.Makespan, want.Retries, want.Evictions,
					got.Result.Makespan, got.Result.Retries, got.Result.Evictions)
			}
			// The edited site must not have served the plain run's master, nor
			// its platform model.
			plain, err := e.RunWorkflow("osg", n)
			if err != nil {
				t.Fatal(err)
			}
			if findTask(plain.PerTask, workflow.TrRunCAP3).MeanSetup <= 0 {
				t.Errorf("%+v n=%d: plain OSG run after the variant has no install time", v, n)
			}
			if want := directVariantRun(t, e, "osg", n, Variant{}); plain.Result.Makespan != want.Makespan {
				t.Errorf("%+v n=%d: plain OSG run after the variant takes %v s, from scratch %v s",
					v, n, plain.Result.Makespan, want.Makespan)
			}
		}
	}
}

// TestVariantPreinstallKeepsEverySite: editing one site's declaration keeps
// the others. The cloud is already preinstalled, so the variant there is the
// plain run.
func TestVariantPreinstallKeepsEverySite(t *testing.T) {
	e := DefaultExperiment(42)
	plain, err := e.RunVariant("cloud", 10, Variant{})
	if err != nil {
		t.Fatal(err)
	}
	pre, err := e.RunVariant("cloud", 10, Variant{PreinstallOSG: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Summary, pre.Summary) || !reflect.DeepEqual(plain.PerTask, pre.PerTask) {
		t.Errorf("preinstalled cloud run differs from the plain one:\n%+v\n%+v", plain.Summary, pre.Summary)
	}
}

// TestA3ClusteringViaRunClustered pins ablation A3 — run_cap3 bundled 1, 4
// and 16 to a grid job on Sandhills at n=500 — to the numbers the deleted
// abstract-level clustering (Variant.ClusterSize) gave for it.
func TestA3ClusteringViaRunClustered(t *testing.T) {
	e := DefaultExperiment(canonicalSeed)
	for _, want := range []struct {
		factor, gridJobs int
		wall, kickstart  float64
	}{
		{1, 505, 12477, 340709},
		{4, 130, 14214, 340263},
		{16, 37, 24170, 344319},
	} {
		r, err := e.RunClustered("sandhills", 500, planner.ClusterOptions{
			MaxTasksPerJob: want.factor, Transformations: []string{workflow.TrRunCAP3},
		})
		if err != nil {
			t.Fatal(err)
		}
		gridJobs := len(r.Result.Completed) + len(r.Result.Unfinished)
		if gridJobs != want.gridJobs || math.Round(r.WallTime()) != want.wall ||
			math.Round(r.Summary.CumulativeKickstart) != want.kickstart {
			t.Errorf("factor %d: %d grid jobs, wall %.0f s, cumulative kickstart %.0f s; want %d, %.0f, %.0f",
				want.factor, gridJobs, r.WallTime(), r.Summary.CumulativeKickstart,
				want.gridJobs, want.wall, want.kickstart)
		}
		// Every payload task still reports its own kickstart record.
		if r.Summary.Jobs != 505 {
			t.Errorf("factor %d: %d task records, want 505", want.factor, r.Summary.Jobs)
		}
	}
}

// TestOneEngineDriverInCore parses the package's non-test sources: one
// engine.Run call (RunSerial) and one platform.NewMultiExecutor call
// (EnsembleExperiment.Run), so no experiment has a run path of its own.
func TestOneEngineDriverInCore(t *testing.T) {
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
	for _, call := range []string{"engine.Run", "platform.NewMultiExecutor"} {
		if calls[call] != 1 {
			t.Errorf("%d %s calls in non-test core, want 1", calls[call], call)
		}
	}
}

func TestVariantSkewChangesPlateau(t *testing.T) {
	e := DefaultExperiment(canonicalSeed)
	flat, err := e.RunVariant("sandhills", 300, Variant{SizeExponent: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	paper, err := e.RunVariant("sandhills", 300, Variant{SizeExponent: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// A flatter rank-size law means much more total work, so the n=300
	// wall time rises well above the paper workload's plateau.
	if flat.WallTime() <= 1.5*paper.WallTime() {
		t.Errorf("flat-skew wall %v not well above paper workload %v",
			flat.WallTime(), paper.WallTime())
	}
}

func TestCloudPlatformFutureWork(t *testing.T) {
	e := DefaultExperiment(canonicalSeed)
	cloud, err := e.RunWorkflow("cloud", 300)
	if err != nil {
		t.Fatal(err)
	}
	if !cloud.Result.Success {
		t.Fatal("cloud run failed")
	}
	sand, err := e.RunWorkflow("sandhills", 300)
	if err != nil {
		t.Fatal(err)
	}
	osg, err := e.RunWorkflow("osg", 300)
	if err != nil {
		t.Fatal(err)
	}
	// The cloud has no install step and no preemption, so it beats OSG;
	// provisioning latency and the virtualization tax keep it near (and
	// here above) the dedicated campus allocation.
	if cloud.WallTime() >= osg.WallTime() {
		t.Errorf("cloud (%v) not below OSG (%v)", cloud.WallTime(), osg.WallTime())
	}
	if cloud.Result.Evictions != 0 {
		t.Errorf("cloud evictions = %d", cloud.Result.Evictions)
	}
	for _, row := range cloud.PerTask {
		if row.MeanSetup != 0 {
			t.Errorf("cloud install time for %s = %v", row.Transformation, row.MeanSetup)
		}
	}
	_ = sand
}

func TestVariantUnknownPlatform(t *testing.T) {
	e := DefaultExperiment(1)
	if _, err := e.RunVariant("mainframe", 10, Variant{}); err == nil {
		t.Error("unknown platform accepted")
	}
}
