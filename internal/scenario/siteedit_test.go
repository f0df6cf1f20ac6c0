package scenario

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"pegflow/internal/catalog"
	"pegflow/internal/engine"
	"pegflow/internal/planner"
	"pegflow/internal/sim/platform"
	"pegflow/internal/workflow"
)

// siteEdit is an edit of one built-in site's declaration, as a scenario
// document's overrides of a preset make one (the ablation documents A1 and
// A2 under examples/scenarios/figures).
type siteEdit struct {
	preinstalled bool // the software stack is on the nodes (A1)
	noEvictions  bool // the eviction hazard is zero (A2)
}

// runEdited runs the paper workload at seed with n chunks on the named
// built-in site after applying edit to its declaration, through the one run
// path: the edited world fingerprints to its own plan-cache key.
func runEdited(t *testing.T, seed uint64, site string, n int, edit siteEdit) *memberRun {
	t.Helper()
	sites := workflow.PaperSites(0, 0)
	for i := range sites {
		if s := &sites[i]; s.Platform.Name == site {
			if edit.noEvictions {
				s.Platform.EvictionRate = 0
			}
			if edit.preinstalled {
				s.Preinstalled = true
			}
		}
	}
	world, err := workflow.NewWorld(sites)
	if err != nil {
		t.Fatal(err)
	}
	return mustRunMember(t, onSite(world, seed, workflow.PaperWorkload(seed), site, n, planner.ClusterOptions{}))
}

// directEditedRun is the pipeline an edited site had to itself before it
// became an edit of the declared site handed to the one run path, kept here
// as the reference: the workload's own DAX, freshly built paper catalogs —
// preinstalled with the site's transformations marked installed —
// planner.New, one bare executor — without evictions with the hazard zeroed
// — and engine.Run.
func directEditedRun(t *testing.T, seed uint64, platformName string, n int, edit siteEdit) *engine.Result {
	t.Helper()
	w := workflow.PaperWorkload(seed)
	var cfg platform.Config
	for _, s := range workflow.PaperSites(0, 0) {
		if s.Platform.Name == platformName {
			cfg = s.Config(seed ^ (uint64(n) * 0x9e3779b97f4a7c15))
		}
	}
	if edit.noEvictions {
		cfg.EvictionRate = 0
	}
	abstract, err := workflow.BuildDAX(workflow.BuilderConfig{N: n, Workload: w})
	if err != nil {
		t.Fatal(err)
	}
	cats, err := workflow.PaperCatalogs(w, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if edit.preinstalled {
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
	res, err := engine.Run(plan, ex, engine.Options{RetryLimit: 5})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// preinstalledEverywhere rebuilds the transformation catalog with every
// entry at the given site marked installed: the catalog edit a preinstalled
// site made before it became an edit of the declared site.
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
				panic(fmt.Sprintf("rebuilding catalog: %v", err))
			}
		}
	}
	return out
}

// TestVariantPreinstallEqualsDirectPipeline: an edited OSG — preinstalled,
// without evictions, or both — run through the one run path (the edited
// site's world under its own plan-cache key, a pool of one) is the direct
// pipeline's run record for record, cold and warm, and leaves the plain
// site's master and platform model alone.
func TestVariantPreinstallEqualsDirectPipeline(t *testing.T) {
	logBytes := func(res *engine.Result) []byte {
		var buf bytes.Buffer
		if err := res.Log.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ResetPlanCache()
	for _, edit := range []siteEdit{{preinstalled: true}, {noEvictions: true}, {preinstalled: true, noEvictions: true}} {
		for _, n := range []int{10, 100, 100} {
			const seed = 42
			want := directEditedRun(t, seed, "osg", n, edit)
			got := runEdited(t, seed, "osg", n, edit)
			if !bytes.Equal(logBytes(want), logBytes(got.Result)) {
				t.Errorf("%+v n=%d: attempt logs differ", edit, n)
			}
			if want.Makespan != got.Result.Makespan || want.Retries != got.Result.Retries ||
				want.Evictions != got.Result.Evictions || want.Success != got.Result.Success {
				t.Errorf("%+v n=%d: direct pipeline %v s, %d retries, %d evictions; one path %v s, %d, %d",
					edit, n, want.Makespan, want.Retries, want.Evictions,
					got.Result.Makespan, got.Result.Retries, got.Result.Evictions)
			}
			// The edited site must not have served the plain run's master, nor
			// its platform model.
			plain := mustRunMember(t, paperOnSite(t, seed, "osg", n, planner.ClusterOptions{}))
			if findTask(plain.PerTask, workflow.TrRunCAP3).MeanSetup <= 0 {
				t.Errorf("%+v n=%d: plain OSG run after the edited one has no install time", edit, n)
			}
			if want := directEditedRun(t, seed, "osg", n, siteEdit{}); plain.Result.Makespan != want.Makespan {
				t.Errorf("%+v n=%d: plain OSG run after the edited one takes %v s, from scratch %v s",
					edit, n, plain.Result.Makespan, want.Makespan)
			}
		}
	}
}

// TestVariantPreinstallKeepsEverySite: editing one site's declaration keeps
// the others. The cloud is already preinstalled, so the edit there is the
// plain run.
func TestVariantPreinstallKeepsEverySite(t *testing.T) {
	plain := mustRunMember(t, paperOnSite(t, 42, "cloud", 10, planner.ClusterOptions{}))
	pre := runEdited(t, 42, "cloud", 10, siteEdit{preinstalled: true})
	if !reflect.DeepEqual(plain.Summary, pre.Summary) || !reflect.DeepEqual(plain.PerTask, pre.PerTask) {
		t.Errorf("preinstalled cloud run differs from the plain one:\n%+v\n%+v", plain.Summary, pre.Summary)
	}
}
