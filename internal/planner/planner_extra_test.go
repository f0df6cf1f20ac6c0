package planner

import (
	"fmt"
	"testing"
	"testing/quick"

	"pegflow/internal/catalog"
	"pegflow/internal/dax"
)

// The stage-in job is never folded, and clustering keeps it feeding its
// consumer.
func TestStageInCombinesWithClustering(t *testing.T) {
	cats := testCatalogs(t, "split", "run_cap3", "merge")
	if err := cats.Replicas.Add("alignments.out", catalog.Replica{Site: "local", PFN: "/d/a"}); err != nil {
		t.Fatal(err)
	}
	orig, err := New(fanWorkflow(t, 9), cats, Options{Site: "osg", AddStageIn: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Cluster(orig, ClusterOptions{MaxTasksPerJob: 3})
	if err != nil {
		t.Fatal(err)
	}
	// 9 cap3 → 3 clustered + split + merge + stage_in = 6.
	if p.Graph().Len() != 6 {
		t.Fatalf("plan jobs = %d: %v", p.Graph().Len(), ids(p))
	}
	si := p.Job("stage_in_osg")
	if si == nil || len(si.Members) != 0 {
		t.Fatalf("stage_in missing or folded: %+v", si)
	}
	// stage_in feeds split only (the sole consumer of alignments.out).
	if kids := p.Graph().Children("stage_in_osg"); len(kids) != 1 || kids[0] != "split" {
		t.Errorf("stage_in children = %v", kids)
	}
	checkClusterInvariants(t, orig, p, ClusterOptions{MaxTasksPerJob: 3})
}

func TestStageInJobHasTopPriority(t *testing.T) {
	cats := testCatalogs(t, "split", "run_cap3", "merge")
	if err := cats.Replicas.Add("alignments.out", catalog.Replica{Site: "local", PFN: "/d/a"}); err != nil {
		t.Fatal(err)
	}
	p, err := New(fanWorkflow(t, 2), cats, Options{Site: "sandhills", AddStageIn: true})
	if err != nil {
		t.Fatal(err)
	}
	si := p.Job("stage_in_sandhills")
	for _, j := range p.Jobs() {
		if j.ID != si.ID && j.Priority >= si.Priority {
			t.Errorf("job %s priority %d ≥ stage_in %d", j.ID, j.Priority, si.Priority)
		}
	}
}

func TestClusteredJobInheritsMaxPriority(t *testing.T) {
	cats := testCatalogs(t, "work")
	w := dax.New("prio")
	for i := 0; i < 4; i++ {
		j := w.NewJob(fmt.Sprintf("J%d", i), "work")
		j.Priority = i * 10
		j.SetProfile("pegasus", "runtime", "5")
	}
	orig, err := New(w, cats, Options{Site: "sandhills"})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Cluster(orig, ClusterOptions{MaxTasksPerJob: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p.Graph().Len() != 1 {
		t.Fatalf("jobs = %d", p.Graph().Len())
	}
	only := p.Jobs()[0]
	if only.Priority != 30 {
		t.Errorf("clustered priority = %d, want max 30", only.Priority)
	}
	if len(only.Members) != 4 || only.ExecSeconds != 20 {
		t.Errorf("members = %v exec = %v", only.Members, only.ExecSeconds)
	}
}

func TestInputOutputByteTotals(t *testing.T) {
	cats := testCatalogs(t, "t")
	w := dax.New("io")
	w.NewJob("a", "t").AddInput("x", 100).AddInput("y", 50).AddOutput("z", 25)
	p, err := New(w, cats, Options{Site: "sandhills"})
	if err != nil {
		t.Fatal(err)
	}
	j := p.Job("a")
	if j.InputBytes != 150 || j.OutputBytes != 25 {
		t.Errorf("bytes = %d/%d", j.InputBytes, j.OutputBytes)
	}
}

// taskOwners maps every abstract task to the executable job that carries
// it (composites own their Members; plain jobs own themselves).
func taskOwners(t *testing.T, p *Plan) map[string]string {
	t.Helper()
	owner := make(map[string]string)
	for _, j := range p.Jobs() {
		if j.Transformation == StageInTransformation {
			continue
		}
		tasks := []string{j.ID}
		if len(j.Members) > 0 {
			tasks = tasks[:0]
			for _, m := range j.Members {
				tasks = append(tasks, m.TaskID)
			}
		}
		for _, task := range tasks {
			if prev, dup := owner[task]; dup {
				t.Errorf("task %q owned by both %q and %q", task, prev, j.ID)
			}
			owner[task] = j.ID
		}
	}
	return owner
}

// checkPlanInvariants asserts the planning properties the ISSUE names:
// every abstract task appears in exactly one executable job, dependencies
// are never inverted, and every job lands on a site where its
// transformation resolves.
func checkPlanInvariants(t *testing.T, abstract *dax.Workflow, p *Plan, cats Catalogs) {
	t.Helper()
	owner := taskOwners(t, p)
	for _, aj := range abstract.Jobs() {
		if _, ok := owner[aj.ID]; !ok {
			t.Errorf("abstract task %q missing from the plan", aj.ID)
		}
	}
	if len(owner) != abstract.Len() {
		t.Errorf("plan carries %d tasks, abstract has %d", len(owner), abstract.Len())
	}

	// Dependencies are never inverted: for every abstract edge, the
	// owners are the same executable job or ordered by a plan edge.
	pos := make(map[string]int)
	order, err := p.Graph().TopoSort()
	if err != nil {
		t.Fatalf("plan not acyclic: %v", err)
	}
	for i, id := range order {
		pos[id] = i
	}
	for _, aj := range abstract.Jobs() {
		for _, parent := range abstract.Parents(aj.ID) {
			po, co := owner[parent], owner[aj.ID]
			if po == co {
				continue
			}
			if pos[po] >= pos[co] {
				t.Errorf("dependency %q -> %q inverted: owner %q at %d, %q at %d",
					parent, aj.ID, po, pos[po], co, pos[co])
			}
			found := false
			for _, c := range p.Graph().Children(po) {
				if c == co {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("no plan edge for abstract dependency %q -> %q (owners %q -> %q)",
					parent, aj.ID, po, co)
			}
		}
	}

	// Every job resolves at its site; installs only where allowed.
	for _, j := range p.Jobs() {
		if j.Transformation == StageInTransformation {
			continue
		}
		tc, err := cats.Transformations.Lookup(j.Transformation, j.Site)
		if err != nil {
			t.Errorf("job %q: transformation %q does not resolve at its site %q",
				j.ID, j.Transformation, j.Site)
			continue
		}
		site, err := cats.Sites.Lookup(j.Site)
		if err != nil {
			t.Errorf("job %q: unknown site %q", j.ID, j.Site)
			continue
		}
		if j.NeedsInstall != !tc.Installed {
			t.Errorf("job %q at %q: NeedsInstall = %v, catalog Installed = %v",
				j.ID, j.Site, j.NeedsInstall, tc.Installed)
		}
		if j.NeedsInstall && site.SharedSoftware {
			t.Errorf("job %q needs install at shared-software site %q", j.ID, j.Site)
		}
	}
}

// Property: single-site planning with clustering preserves the task set,
// dependency order and site resolution for any fan width and cluster size.
func TestPropertySingleSitePlanInvariants(t *testing.T) {
	cats := testCatalogs(t, "split", "run_cap3", "merge")
	f := func(widthRaw, sizeRaw uint8, osg bool) bool {
		width := int(widthRaw%40) + 1
		size := int(sizeRaw%8) + 1
		site := "sandhills"
		if osg {
			site = "osg"
		}
		w := fanWorkflowQuick(width)
		p, err := New(w, cats, Options{Site: site})
		if err != nil {
			return false
		}
		if p, err = Cluster(p, ClusterOptions{MaxTasksPerJob: size, Transformations: []string{"run_cap3"}}); err != nil {
			return false
		}
		checkPlanInvariants(t, w, p, cats)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: multi-site planning keeps the same invariants for every
// policy, site-set permutation and cluster size, and only ever assigns
// jobs to the declared target sites.
func TestPropertyMultiSitePlanInvariants(t *testing.T) {
	cats := testCatalogs(t, "split", "run_cap3", "merge")
	siteSets := [][]string{
		{"sandhills"},
		{"osg"},
		{"sandhills", "osg"},
		{"osg", "sandhills"},
	}
	f := func(widthRaw, sizeRaw, setRaw, polRaw uint8) bool {
		width := int(widthRaw%30) + 1
		size := int(sizeRaw % 6) // 0/1 disable clustering
		sites := siteSets[int(setRaw)%len(siteSets)]
		polName := PolicyNames()[int(polRaw)%len(PolicyNames())]
		pol, err := NewPolicy(polName)
		if err != nil {
			t.Fatal(err)
		}
		w := fanWorkflowQuick(width)
		p, err := NewMulti(w, cats, MultiOptions{Sites: sites, Policy: pol})
		if err != nil {
			return false
		}
		if p, err = Cluster(p, ClusterOptions{MaxTasksPerJob: size, Transformations: []string{"run_cap3"}}); err != nil {
			return false
		}
		checkPlanInvariants(t, w, p, cats)
		allowed := make(map[string]bool, len(sites))
		for _, s := range sites {
			allowed[s] = true
		}
		for _, j := range p.Jobs() {
			if !allowed[j.Site] {
				t.Errorf("job %q landed on %q, outside target set %v", j.ID, j.Site, sites)
			}
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// fanWorkflowQuick is fanWorkflow without *testing.T for property use.
func fanWorkflowQuick(width int) *dax.Workflow {
	w := dax.New("fan")
	w.NewJob("split", "split").AddInput("alignments.out", 1000).AddOutput("chunks", 0).
		SetProfile("pegasus", "runtime", "60")
	for i := 0; i < width; i++ {
		id := fmt.Sprintf("run_cap3_%03d", i)
		w.NewJob(id, "run_cap3").AddInput("chunks", 0).AddOutput(fmt.Sprintf("j%03d", i), 0).
			SetProfile("pegasus", "runtime", "100")
		_ = w.AddDependency("split", id)
	}
	w.NewJob("merge", "merge").SetProfile("pegasus", "runtime", "30")
	for i := 0; i < width; i++ {
		w.Job("merge").AddInput(fmt.Sprintf("j%03d", i), 0)
		_ = w.AddDependency(fmt.Sprintf("run_cap3_%03d", i), "merge")
	}
	return w
}
