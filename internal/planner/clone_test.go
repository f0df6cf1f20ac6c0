package planner

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pegflow/internal/catalog"
	"pegflow/internal/dax"
)

// snapshot captures everything observable about a plan for deep-equality
// comparison: job attributes (slices copied element by element), graph
// structure, and topological index.
func snapshot(t *testing.T, p *Plan) map[string]any {
	t.Helper()
	out := slabSnapshot(t, p)
	g := p.Graph()
	for _, id := range p.index.Order {
		out["graph/"+id] = *g.Job(id).Clone()
		out["parents/"+id] = g.Parents(id)
		out["children/"+id] = g.Children(id)
	}
	return out
}

// slabSnapshot is snapshot without the graph: the sites, the index order and
// the job slab.
func slabSnapshot(t *testing.T, p *Plan) map[string]any {
	t.Helper()
	out := map[string]any{
		"site":  p.Site,
		"sites": append([]string(nil), p.Sites...),
	}
	idx := p.Indexed()
	out["order"] = append([]string(nil), idx.Order...)
	for i, id := range idx.Order {
		j := *p.JobAt(int32(i))
		j.Args = append([]string(nil), j.Args...)
		j.Members = append([]Member(nil), j.Members...)
		out["job/"+id] = j
	}
	return out
}

// mutate applies one random edit to a planned job, exercising every field
// kind a clone owns: scalars and the two slices (by append — element
// writes through a shared backing array are what clonegate forbids).
func mutate(t *testing.T, p *Plan, r *rand.Rand) {
	t.Helper()
	pos := int32(r.Intn(len(p.jobs)))
	j := p.JobAt(pos)
	switch r.Intn(5) {
	case 0:
		j.ExecSeconds += 17.5
	case 1:
		j.Args = append(j.Args, "--mutated")
	case 2:
		j.Site = "elsewhere"
		j.NeedsInstall = !j.NeedsInstall
		j.InstallBytes += 3
	case 3:
		j.Members = append(j.Members, Member{TaskID: "ghost", ExecSeconds: 1})
	case 4:
		j.ID, j.Transformation = j.ID+"'", "renamed"
		j.Priority++
		j.InputBytes++
		j.OutputBytes++
	}
}

// TestPlanCloneDeeplyIndependent is the clone property test: a clone
// reproduces the original and shares its shape (index, origin, sites); for
// many random edit sequences over every Job field, editing the clone never
// changes the original and editing the original never changes the clone;
// and the shared topology reads the same after both sides' edits.
func TestPlanCloneDeeplyIndependent(t *testing.T) {
	cats := testCatalogs(t, "split", "run_cap3", "merge")
	r := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		site := []string{"sandhills", "osg"}[round%2]
		plan, err := New(fanWorkflow(t, 3+r.Intn(5)), cats, Options{Site: site})
		if err != nil {
			t.Fatal(err)
		}
		if round%3 == 0 {
			plan, err = Cluster(plan, ClusterOptions{MaxTasksPerJob: 2})
			if err != nil {
				t.Fatal(err)
			}
		}

		before := snapshot(t, plan)
		clone := plan.Clone()
		if !reflect.DeepEqual(before, snapshot(t, clone)) {
			t.Fatalf("round %d: clone does not reproduce the original", round)
		}
		if clone.origin != plan.origin || clone.index != plan.index {
			t.Fatalf("round %d: clone does not share the plan's shape", round)
		}
		if &clone.jobs[0] == &plan.jobs[0] {
			t.Fatalf("round %d: clone shares the job slab", round)
		}
		// A composite in the view Graph derives takes its transformation,
		// priority and members from the slab, which the edits below scribble
		// on as nothing outside this test does: once edited, a clustered
		// plan's view is not read again.
		snapshot := snapshot
		if plan.clustered > 0 {
			snapshot = slabSnapshot
			before = slabSnapshot(t, plan)
		}
		for m := 0; m < 8; m++ {
			mutate(t, clone, r)
		}
		if !reflect.DeepEqual(before, snapshot(t, plan)) {
			t.Fatalf("round %d: mutating the clone changed the original", round)
		}

		// And the other direction: the clone must survive original edits.
		cloneBefore := snapshot(t, clone)
		for m := 0; m < 8; m++ {
			mutate(t, plan, r)
		}
		if !reflect.DeepEqual(cloneBefore, snapshot(t, clone)) {
			t.Fatalf("round %d: mutating the original changed the clone", round)
		}

		// The topology is shared, and Job edits leave it and the view alone.
		after := snapshot(t, plan)
		for k, v := range before {
			if strings.HasPrefix(k, "job/") {
				continue
			}
			if !reflect.DeepEqual(v, after[k]) {
				t.Fatalf("round %d: %s changed under job edits", round, k)
			}
		}
	}
}

var cloneSink *Plan

// TestAllocsPlanClone pins Clone's point (run by CI as `go test -run
// 'TestAllocs'`): two allocations — the plan header and the slab —
// whatever the job count.
func TestAllocsPlanClone(t *testing.T) {
	cats := testCatalogs(t, "split", "run_cap3", "merge")
	for _, width := range []int{4, 400} {
		plan, err := New(fanWorkflow(t, width), cats, Options{Site: "osg"})
		if err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(10, func() { cloneSink = plan.Clone() }); got != 2 {
			t.Errorf("width %d: Clone costs %v allocations, want 2", width, got)
		}
	}
}

// TestSlabFollowsIndex checks the layout every constructor must leave
// behind: JobAt(i) is the job named Order[i] even where insertion order is
// not topological (the stage-in job is added last and is a root), Jobs()
// keeps insertion order, and every job's slices are clipped.
func TestSlabFollowsIndex(t *testing.T) {
	cats := testCatalogs(t, "split", "run_cap3", "merge")
	if err := cats.Replicas.Add("alignments.out", catalog.Replica{Site: "local", PFN: "/d/a"}); err != nil {
		t.Fatal(err)
	}
	single, err := New(fanWorkflow(t, 5), cats, Options{Site: "osg", AddStageIn: true})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := NewMulti(fanWorkflow(t, 5), cats, MultiOptions{Sites: []string{"sandhills", "osg"}, AddStageIn: true})
	if err != nil {
		t.Fatal(err)
	}
	clustered, err := Cluster(multi, ClusterOptions{MaxTasksPerJob: 2})
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]*Plan{"New": single, "NewMulti": multi, "Cluster": clustered} {
		idx := p.Indexed()
		if len(p.jobs) != len(idx.Order) {
			t.Fatalf("%s: %d slab jobs for %d positions", name, len(p.jobs), len(idx.Order))
		}
		for i, id := range idx.Order {
			j := p.JobAt(int32(i))
			if j.ID != id || p.Job(id) != j {
				t.Errorf("%s: position %d holds %q, want %q", name, i, j.ID, id)
			}
			if cap(j.Args) != len(j.Args) || cap(j.Members) != len(j.Members) {
				t.Errorf("%s: job %q has unclipped slices", name, id)
			}
		}
		jobs := p.Jobs()
		for i, gj := range p.Graph().Jobs() {
			if jobs[i].ID != gj.ID {
				t.Errorf("%s: Jobs()[%d] = %q, want insertion order %q", name, i, jobs[i].ID, gj.ID)
			}
		}
	}
	if single.Job("stage_in_osg") == nil || single.Job("nope") != nil {
		t.Error("Job(id) lookup broken")
	}
}

// TestAssembleRejectsMismatchedJobs covers the constructor for hand-built
// plans: the jobs must be exactly the graph's, each once, and the graph
// acyclic.
func TestAssembleRejectsMismatchedJobs(t *testing.T) {
	graph := func() *dax.Workflow {
		g := dax.New("g")
		g.NewJob("a", "t")
		g.NewJob("b", "t")
		if err := g.AddDependency("a", "b"); err != nil {
			t.Fatal(err)
		}
		return g
	}
	// Reverse insertion order: Assemble must sort the slab into index order.
	p, err := Assemble(graph(), "s", []Job{{ID: "b"}, {ID: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	if p.JobAt(0).ID != "a" || p.JobAt(1).ID != "b" {
		t.Errorf("slab order = %q, %q", p.JobAt(0).ID, p.JobAt(1).ID)
	}
	for name, jobs := range map[string][]Job{
		"missing":   {{ID: "a"}},
		"unknown":   {{ID: "a"}, {ID: "c"}},
		"duplicate": {{ID: "b"}, {ID: "b"}},
	} {
		if _, err := Assemble(graph(), "s", jobs); err == nil {
			t.Errorf("%s job accepted", name)
		}
	}
	cyclic := graph()
	if err := cyclic.AddDependency("b", "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := Assemble(cyclic, "s", []Job{{ID: "a"}, {ID: "b"}}); err == nil {
		t.Error("cyclic graph accepted")
	}
}

// TestTotalExecSecondsDeterministic pins the summation order: runtimes
// that are not exactly representable make a float sum depend on the order
// of its terms, and the total feeds `pegflow plan`'s output, so the same
// plan built twice must give the same bits.
func TestTotalExecSecondsDeterministic(t *testing.T) {
	cats := testCatalogs(t, "split", "run_cap3", "merge")
	build := func() float64 {
		w := fanWorkflow(t, 64)
		for i, j := range w.Jobs() {
			j.SetProfile("pegasus", "runtime", []string{"0.1", "1e15", "0.7", "3.3333", "1e-9"}[i%5])
		}
		p, err := New(w, cats, Options{Site: "osg"})
		if err != nil {
			t.Fatal(err)
		}
		return p.TotalExecSeconds()
	}
	want := build()
	for i := 0; i < 50; i++ {
		if got := build(); got != want {
			t.Fatalf("build %d: TotalExecSeconds = %v, first build gave %v", i, got, want)
		}
	}
}
