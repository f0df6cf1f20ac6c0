package planner

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pegflow/internal/catalog"
	"pegflow/internal/dax"
)

// testCatalogs builds a two-site world resembling the paper's: "sandhills"
// has everything preinstalled; "osg" has nothing preinstalled.
func testCatalogs(t *testing.T, transformations ...string) Catalogs {
	t.Helper()
	sc := catalog.NewSiteCatalog()
	for _, s := range []*catalog.Site{
		{Name: "sandhills", Slots: 50, SpeedFactor: 1.0, SharedSoftware: true, StageInMBps: 100},
		{Name: "osg", Slots: 200, SpeedFactor: 0.9, Heterogeneous: true, StageInMBps: 20},
	} {
		if err := sc.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	tc := catalog.NewTransformationCatalog()
	for _, tr := range transformations {
		if err := tc.Add(&catalog.Transformation{Name: tr, Site: "sandhills", PFN: "/opt/" + tr, Installed: true}); err != nil {
			t.Fatal(err)
		}
		if err := tc.Add(&catalog.Transformation{Name: tr, Site: "osg", PFN: tr + ".tar.gz", InstallBytes: 50 << 20}); err != nil {
			t.Fatal(err)
		}
	}
	return Catalogs{Sites: sc, Transformations: tc, Replicas: catalog.NewReplicaCatalog()}
}

func fanWorkflow(t *testing.T, width int) *dax.Workflow {
	t.Helper()
	w := dax.New("fan")
	w.NewJob("split", "split").AddInput("alignments.out", 1000).AddOutput("chunks", 0).
		SetProfile("pegasus", "runtime", "60")
	for i := 0; i < width; i++ {
		id := fmt.Sprintf("run_cap3_%03d", i)
		w.NewJob(id, "run_cap3").AddInput("chunks", 0).AddOutput(fmt.Sprintf("joined_%03d", i), 0).
			SetProfile("pegasus", "runtime", "100")
		if err := w.AddDependency("split", id); err != nil {
			t.Fatal(err)
		}
	}
	w.NewJob("merge", "merge").SetProfile("pegasus", "runtime", "30")
	for i := 0; i < width; i++ {
		w.Job("merge").AddInput(fmt.Sprintf("joined_%03d", i), 0)
		if err := w.AddDependency(fmt.Sprintf("run_cap3_%03d", i), "merge"); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func TestPlanSandhillsNoInstall(t *testing.T) {
	cats := testCatalogs(t, "split", "run_cap3", "merge")
	p, err := New(fanWorkflow(t, 4), cats, Options{Site: "sandhills"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Graph().Len() != 6 {
		t.Fatalf("plan has %d jobs, want 6", p.Graph().Len())
	}
	for _, j := range p.Jobs() {
		if j.NeedsInstall {
			t.Errorf("job %s needs install on sandhills", j.ID)
		}
	}
	if got := p.Job("split").ExecSeconds; got != 60 {
		t.Errorf("split ExecSeconds = %v, want 60", got)
	}
	if got := p.TotalExecSeconds(); got != 60+4*100+30 {
		t.Errorf("TotalExecSeconds = %v, want 490", got)
	}
}

func TestPlanOSGInjectsInstall(t *testing.T) {
	cats := testCatalogs(t, "split", "run_cap3", "merge")
	p, err := New(fanWorkflow(t, 4), cats, Options{Site: "osg"})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range p.Jobs() {
		if !j.NeedsInstall {
			t.Errorf("job %s (%s) lacks install step on osg", j.ID, j.Transformation)
		}
		if j.InstallBytes != 50<<20 {
			t.Errorf("job %s InstallBytes = %d", j.ID, j.InstallBytes)
		}
	}
}

func TestPlanPreservesDependencies(t *testing.T) {
	cats := testCatalogs(t, "split", "run_cap3", "merge")
	p, err := New(fanWorkflow(t, 3), cats, Options{Site: "sandhills"})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Graph().Parents("merge"); len(got) != 3 {
		t.Errorf("Parents(merge) = %v", got)
	}
	if got := p.Graph().Children("split"); len(got) != 3 {
		t.Errorf("Children(split) = %v", got)
	}
}

func TestPlanUnknownSiteAndTransformation(t *testing.T) {
	cats := testCatalogs(t, "split", "run_cap3", "merge")
	if _, err := New(fanWorkflow(t, 2), cats, Options{Site: "cloud"}); err == nil {
		t.Error("unknown site accepted")
	}
	if _, err := New(fanWorkflow(t, 2), cats, Options{}); err == nil {
		t.Error("empty site accepted")
	}
	w := dax.New("w")
	w.NewJob("x", "exotic_tool")
	if _, err := New(w, cats, Options{Site: "sandhills"}); err == nil {
		t.Error("unregistered transformation accepted")
	}
}

func TestPlanRejectsBadRuntimeProfile(t *testing.T) {
	cats := testCatalogs(t, "t")
	w := dax.New("w")
	w.NewJob("a", "t").SetProfile("pegasus", "runtime", "soon")
	if _, err := New(w, cats, Options{Site: "sandhills"}); err == nil {
		t.Error("non-numeric runtime accepted")
	}
	w2 := dax.New("w2")
	w2.NewJob("a", "t").SetProfile("pegasus", "runtime", "-5")
	if _, err := New(w2, cats, Options{Site: "sandhills"}); err == nil {
		t.Error("negative runtime accepted")
	}
}

func TestPlanNotInstalledAtSharedSoftwareSiteFails(t *testing.T) {
	sc := catalog.NewSiteCatalog()
	if err := sc.Add(&catalog.Site{Name: "campus", Slots: 10, SpeedFactor: 1, SharedSoftware: true}); err != nil {
		t.Fatal(err)
	}
	tc := catalog.NewTransformationCatalog()
	if err := tc.Add(&catalog.Transformation{Name: "t", Site: "campus", Installed: false}); err != nil {
		t.Fatal(err)
	}
	w := dax.New("w")
	w.NewJob("a", "t")
	_, err := New(w, Catalogs{Sites: sc, Transformations: tc, Replicas: catalog.NewReplicaCatalog()},
		Options{Site: "campus"})
	if err == nil || !strings.Contains(err.Error(), "not installed") {
		t.Errorf("want not-installed error, got %v", err)
	}
}

func TestStageInSynthesis(t *testing.T) {
	cats := testCatalogs(t, "split", "run_cap3", "merge")
	if err := cats.Replicas.Add("alignments.out", catalog.Replica{Site: "local", PFN: "/data/alignments.out"}); err != nil {
		t.Fatal(err)
	}
	p, err := New(fanWorkflow(t, 2), cats, Options{Site: "osg", AddStageIn: true})
	if err != nil {
		t.Fatal(err)
	}
	si := p.Job("stage_in_osg")
	if si == nil {
		t.Fatal("no stage_in job synthesized")
	}
	if si.Transformation != StageInTransformation {
		t.Errorf("transformation = %q", si.Transformation)
	}
	if si.OutputBytes != 1000 {
		t.Errorf("OutputBytes = %d, want 1000", si.OutputBytes)
	}
	// ExecSeconds = bytes / (MBps*1e6) = 1000 / 20e6.
	if want := 1000.0 / 20e6; si.ExecSeconds != want {
		t.Errorf("ExecSeconds = %v, want %v", si.ExecSeconds, want)
	}
	if parents := p.Graph().Parents("split"); len(parents) != 1 || parents[0] != "stage_in_osg" {
		t.Errorf("Parents(split) = %v, want [stage_in_osg]", parents)
	}
	// Jobs that don't consume external inputs are not children of stage_in.
	if parents := p.Graph().Parents("merge"); len(parents) != 2 {
		t.Errorf("Parents(merge) = %v", parents)
	}
}

func TestStageInMissingReplicaFails(t *testing.T) {
	cats := testCatalogs(t, "split", "run_cap3", "merge")
	_, err := New(fanWorkflow(t, 2), cats, Options{Site: "osg", AddStageIn: true})
	if err == nil || !strings.Contains(err.Error(), "no replica") {
		t.Errorf("want no-replica error, got %v", err)
	}
}

func TestStageInNoExternalInputsNoJob(t *testing.T) {
	cats := testCatalogs(t, "gen", "use")
	w := dax.New("w")
	w.NewJob("g", "gen").AddOutput("data", 5)
	w.NewJob("u", "use").AddInput("data", 5)
	if err := w.AddDependency("g", "u"); err != nil {
		t.Fatal(err)
	}
	p, err := New(w, cats, Options{Site: "osg", AddStageIn: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.Job("stage_in_osg") != nil {
		t.Error("stage_in synthesized with no external inputs")
	}
}

// clusterFan plans a width-way fan on the site and clusters it.
func clusterFan(t *testing.T, width int, site string, opts ClusterOptions) (orig, clustered *Plan) {
	t.Helper()
	cats := testCatalogs(t, "split", "run_cap3", "merge")
	orig, err := New(fanWorkflow(t, width), cats, Options{Site: site})
	if err != nil {
		t.Fatal(err)
	}
	clustered, err = Cluster(orig, opts)
	if err != nil {
		t.Fatal(err)
	}
	return orig, clustered
}

// An eligibility list that names no job of the plan leaves it as it was.
func TestClusteringSkipsOtherTransformations(t *testing.T) {
	orig, p := clusterFan(t, 6, "sandhills", ClusterOptions{MaxTasksPerJob: 2, Transformations: []string{"does_not_exist"}})
	if p.Graph().Len() != 8 {
		t.Errorf("plan has %d jobs, want 8 (untouched)", p.Graph().Len())
	}
	checkClusterInvariants(t, orig, p, ClusterOptions{MaxTasksPerJob: 2})
	for _, j := range p.Jobs() {
		if len(j.Members) != 0 || !reflect.DeepEqual(j, orig.Job(j.ID)) {
			t.Errorf("job %s changed: %+v", j.ID, j)
		}
	}
}

// Total work survives clustering at every size, the width and one past it
// (one composite holding the whole level) included, and the result is a
// valid DAG partitioning the original jobs.
func TestClusteringPreservesTotalWork(t *testing.T) {
	const width = 17
	for _, size := range []int{0, 1, 2, 3, 5, 16, width, width + 1, 100} {
		opts := ClusterOptions{MaxTasksPerJob: size}
		base, p := clusterFan(t, width, "sandhills", opts)
		if got, want := p.TotalExecSeconds(), base.TotalExecSeconds(); got != want {
			t.Errorf("MaxTasksPerJob=%d: total work %v, want %v", size, got, want)
		}
		checkClusterInvariants(t, base, p, opts)
		if size >= width && p.Graph().Len() != 3 {
			t.Errorf("MaxTasksPerJob=%d: %d jobs, want split, one composite, merge", size, p.Graph().Len())
		}
	}
}

func ids(p *Plan) []string {
	var out []string
	for _, j := range p.Graph().Jobs() {
		out = append(out, j.ID)
	}
	return out
}
