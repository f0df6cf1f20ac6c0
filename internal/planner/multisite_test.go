package planner

import (
	"fmt"
	"strings"
	"testing"

	"pegflow/internal/catalog"
	"pegflow/internal/dax"
)

func TestNewMultiRoundRobinSpreadsJobs(t *testing.T) {
	cats := testCatalogs(t, "split", "run_cap3", "merge")
	p, err := NewMulti(fanWorkflow(t, 6), cats, MultiOptions{
		Sites: []string{"sandhills", "osg"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Site, "sandhills,osg"; got != want {
		t.Errorf("plan Site = %q, want %q", got, want)
	}
	if len(p.Sites) != 2 {
		t.Errorf("Sites = %v", p.Sites)
	}
	counts := map[string]int{}
	for _, j := range p.Jobs() {
		counts[j.Site]++
	}
	// 8 jobs round-robin over 2 sites → 4 each.
	if counts["sandhills"] != 4 || counts["osg"] != 4 {
		t.Errorf("round-robin distribution = %v, want 4/4", counts)
	}
	for _, j := range p.Jobs() {
		wantInstall := j.Site == "osg"
		if j.NeedsInstall != wantInstall {
			t.Errorf("job %s at %s: NeedsInstall = %v", j.ID, j.Site, j.NeedsInstall)
		}
	}
}

func TestNewMultiDataAwarePrefersCheapSite(t *testing.T) {
	cats := testCatalogs(t, "work")
	pol, err := NewPolicy(PolicyDataAware)
	if err != nil {
		t.Fatal(err)
	}
	w := dax.New("data")
	// A single small job: the data-aware policy should avoid the osg
	// install payload (50 MB at 20 MB/s) and pick sandhills even though
	// osg is listed first.
	w.NewJob("j", "work").AddInput("in", 1<<20).SetProfile("pegasus", "runtime", "10")
	p, err := NewMulti(w, cats, MultiOptions{Sites: []string{"osg", "sandhills"}, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Job("j").Site; got != "sandhills" {
		t.Errorf("data-aware chose %q, want sandhills", got)
	}
}

func TestNewMultiBalancesLoadAcrossSites(t *testing.T) {
	cats := testCatalogs(t, "work")
	pol, err := NewPolicy(PolicyRuntimeAware)
	if err != nil {
		t.Fatal(err)
	}
	w := dax.New("load")
	for i := 0; i < 40; i++ {
		w.NewJob(fmt.Sprintf("j%02d", i), "work").SetProfile("pegasus", "runtime", "100")
	}
	p, err := NewMulti(w, cats, MultiOptions{Sites: []string{"sandhills", "osg"}, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, j := range p.Jobs() {
		counts[j.Site]++
	}
	// Equal-cost identical jobs: the load term must force both sites into
	// play rather than piling everything on one.
	if counts["sandhills"] == 0 || counts["osg"] == 0 {
		t.Errorf("runtime-aware used only one site: %v", counts)
	}
}

func TestNewMultiSharedSoftwareSiteExcludedWhenNotInstalled(t *testing.T) {
	sc := catalog.NewSiteCatalog()
	for _, s := range []*catalog.Site{
		{Name: "campus", Slots: 10, SpeedFactor: 1, SharedSoftware: true},
		{Name: "grid", Slots: 10, SpeedFactor: 1},
	} {
		if err := sc.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	tc := catalog.NewTransformationCatalog()
	// "work" is registered at the campus but NOT installed — the campus
	// refuses per-job installs, so only the grid is a candidate.
	if err := tc.Add(&catalog.Transformation{Name: "work", Site: "campus", PFN: "/x"}); err != nil {
		t.Fatal(err)
	}
	if err := tc.Add(&catalog.Transformation{Name: "work", Site: "grid", PFN: "w.tgz", InstallBytes: 1}); err != nil {
		t.Fatal(err)
	}
	cats := Catalogs{Sites: sc, Transformations: tc, Replicas: catalog.NewReplicaCatalog()}
	w := dax.New("x")
	w.NewJob("j", "work")
	p, err := NewMulti(w, cats, MultiOptions{Sites: []string{"campus", "grid"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Job("j").Site; got != "grid" {
		t.Errorf("job planned at %q, want grid", got)
	}

	// With only the campus as target there is no candidate at all.
	if _, err := NewMulti(w, cats, MultiOptions{Sites: []string{"campus"}}); err == nil {
		t.Error("no error when the only site cannot host the transformation")
	}
}

func TestNewMultiErrors(t *testing.T) {
	cats := testCatalogs(t, "split", "run_cap3", "merge")
	w := fanWorkflow(t, 2)
	if _, err := NewMulti(w, cats, MultiOptions{}); err == nil {
		t.Error("no error for empty site set")
	}
	if _, err := NewMulti(w, cats, MultiOptions{Sites: []string{"sandhills", "sandhills"}}); err == nil {
		t.Error("no error for duplicate sites")
	}
	if _, err := NewMulti(w, cats, MultiOptions{Sites: []string{"nowhere"}}); err == nil {
		t.Error("no error for unknown site")
	}
	if _, err := NewPolicy("optimal"); err == nil {
		t.Error("no error for unknown policy name")
	}
}

func TestNewMultiPerSiteStageIn(t *testing.T) {
	cats := testCatalogs(t, "split", "run_cap3", "merge")
	if err := cats.Replicas.Add("alignments.out", catalog.Replica{Site: "local", PFN: "/d/a"}); err != nil {
		t.Fatal(err)
	}
	// Two parallel splits so round-robin lands one on each site; both
	// consume the external input, so each site gets its own stage-in.
	w := dax.New("two")
	w.NewJob("split_a", "split").AddInput("alignments.out", 1000).SetProfile("pegasus", "runtime", "5")
	w.NewJob("split_b", "split").AddInput("alignments.out", 1000).SetProfile("pegasus", "runtime", "5")
	p, err := NewMulti(w, cats, MultiOptions{
		Sites:      []string{"sandhills", "osg"},
		AddStageIn: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var stageIns []*Job
	for _, j := range p.Jobs() {
		if j.Transformation == StageInTransformation {
			stageIns = append(stageIns, j)
		}
	}
	if len(stageIns) != 2 {
		t.Fatalf("stage-in jobs = %d, want one per site", len(stageIns))
	}
	for _, si := range stageIns {
		if !strings.HasPrefix(si.ID, "stage_in_") {
			t.Errorf("stage-in ID %q", si.ID)
		}
		kids := p.Graph().Children(si.ID)
		if len(kids) != 1 {
			t.Errorf("stage-in %s feeds %v, want exactly its site's consumer", si.ID, kids)
			continue
		}
		if consumer := p.Job(kids[0]); consumer.Site != si.Site {
			t.Errorf("stage-in at %s feeds consumer at %s", si.Site, consumer.Site)
		}
		if si.ExecSeconds <= 0 {
			t.Errorf("stage-in %s has no transfer time", si.ID)
		}
	}
	// Transfer at the slower osg bandwidth takes longer.
	bySite := map[string]*Job{}
	for _, si := range stageIns {
		bySite[si.Site] = si
	}
	if bySite["osg"].ExecSeconds <= bySite["sandhills"].ExecSeconds {
		t.Errorf("osg stage-in %.6fs not slower than sandhills %.6fs",
			bySite["osg"].ExecSeconds, bySite["sandhills"].ExecSeconds)
	}
}
