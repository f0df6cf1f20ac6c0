package engine

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"pegflow/internal/catalog"
	"pegflow/internal/dax"
	"pegflow/internal/planner"
)

func TestRescueDAXContainsOnlyUnfinished(t *testing.T) {
	p := diamondPlan(t)
	ex := newFakeExecutor()
	ex.failures["B"] = 10
	res, err := Run(p, ex, Options{RetryLimit: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Success {
		t.Fatal("expected failure")
	}
	rescue, err := rescueDAX(p, res)
	if err != nil {
		t.Fatal(err)
	}
	// B failed, D depends on B: rescue = {B, D}; A and C completed.
	if rescue.Len() != 2 {
		t.Fatalf("rescue has %d jobs, want 2", rescue.Len())
	}
	if rescue.Job("B") == nil || rescue.Job("D") == nil {
		t.Error("rescue missing B or D")
	}
	if rescue.Job("A") != nil || rescue.Job("C") != nil {
		t.Error("rescue contains completed jobs")
	}
	// D's dependency on completed C is dropped; on unfinished B kept.
	parents := rescue.Parents("D")
	if len(parents) != 1 || parents[0] != "B" {
		t.Errorf("rescue Parents(D) = %v, want [B]", parents)
	}
	if err := rescue.Validate(); err != nil {
		t.Errorf("rescue workflow invalid: %v", err)
	}
}

func TestRescueDAXRoundTripsThroughXML(t *testing.T) {
	p := diamondPlan(t)
	ex := newFakeExecutor()
	ex.failures["A"] = 10 // root fails: everything unfinished
	res, err := Run(p, ex, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteRescue(&buf, p, res); err != nil {
		t.Fatal(err)
	}
	got, err := dax.ReadXML(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 4 {
		t.Errorf("rescue of failed root has %d jobs, want all 4", got.Len())
	}
	if got.Edges() != p.Graph().Edges() {
		t.Errorf("edges = %d, want %d", got.Edges(), p.Graph().Edges())
	}
}

func TestRescueDAXRefusesSuccess(t *testing.T) {
	p := diamondPlan(t)
	res, err := Run(p, newFakeExecutor(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rescueDAX(p, res); err == nil {
		t.Error("rescue built for successful run")
	}
}

func TestRescueRunnableOnFreshExecutor(t *testing.T) {
	// The rescue sub-plan must itself execute to completion.
	p := diamondPlan(t)
	ex := newFakeExecutor()
	ex.failures["B"] = 10
	res, err := Run(p, ex, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rescue, err := rescueDAX(p, res)
	if err != nil {
		t.Fatal(err)
	}
	// Plan the rescue graph with the original plan's job attributes.
	var jobs []planner.Job
	for _, gj := range rescue.Jobs() {
		jobs = append(jobs, *p.Job(gj.ID))
	}
	sub, err := planner.Assemble(rescue, p.Site, jobs)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Run(sub, newFakeExecutor(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Success {
		t.Errorf("rescue run failed: %v", res2.Unfinished)
	}
	if len(res2.Completed) != 2 {
		t.Errorf("rescue completed %v", res2.Completed)
	}
}

// TestRescueDAXKeepsRuntimesAndArgs: a rescue DAX is what `pegflow run -dax`
// replans, so it must carry what planning reads. On a plain, a stage-in and a
// clustered plan whose roots fail, the rescue workflow written as XML, read
// back and planned again gives every job the runtime estimate (in the %.3f
// form DAX files carry) and the arguments the failed run's slab held — a
// composite its members' sum.
func TestRescueDAXKeepsRuntimesAndArgs(t *testing.T) {
	w := dax.New("fan")
	split := w.NewJob("split", "split").AddInput("reads.fasta", 2_500_000).AddOutput("chunks", 10)
	split.SetProfile("pegasus", "runtime", "60.125")
	split.Args = []string{"-n", "4", "reads.fasta"}
	w.NewJob("merge", "merge").AddOutput("assembly", 70).SetProfile("pegasus", "runtime", "30.5")
	for i, id := range []string{"chunk_0", "chunk_1", "chunk_2", "chunk_3"} {
		j := w.NewJob(id, "run_cap3").AddInput("chunks", 10).AddOutput("joined_"+id, 7)
		j.SetProfile("pegasus", "runtime", []string{"100.001", "20.25", "3.875", "4000"}[i])
		j.Args = []string{"chunks", id}
		w.Job("merge").AddInput("joined_"+id, 7)
		for _, e := range [][2]string{{"split", id}, {id, "merge"}} {
			if err := w.AddDependency(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	sc := catalog.NewSiteCatalog()
	if err := sc.Add(&catalog.Site{Name: "test", Slots: 8, SpeedFactor: 1, SharedSoftware: true, StageInMBps: 100}); err != nil {
		t.Fatal(err)
	}
	tc := catalog.NewTransformationCatalog()
	for _, tr := range []string{"split", "run_cap3", "merge", planner.StageInTransformation} {
		if err := tc.Add(&catalog.Transformation{Name: tr, Site: "test", Installed: true}); err != nil {
			t.Fatal(err)
		}
	}
	cats := planner.Catalogs{Sites: sc, Transformations: tc, Replicas: catalog.NewReplicaCatalog()}
	if err := cats.Replicas.Add("reads.fasta", catalog.Replica{Site: "local", PFN: "/d/reads.fasta"}); err != nil {
		t.Fatal(err)
	}

	plain, err := planner.New(w, cats, planner.Options{Site: "test"})
	if err != nil {
		t.Fatal(err)
	}
	staged, err := planner.New(w, cats, planner.Options{Site: "test", AddStageIn: true})
	if err != nil {
		t.Fatal(err)
	}
	clustered, err := planner.Cluster(staged, planner.ClusterOptions{MaxTasksPerJob: 3})
	if err != nil {
		t.Fatal(err)
	}
	if staged.Job("stage_in_test") == nil || clustered.Len() != staged.Len()-2 {
		t.Fatalf("fixtures: stage-in job %v, %d clustered jobs of %d", staged.Job("stage_in_test"), clustered.Len(), staged.Len())
	}
	for name, p := range map[string]*planner.Plan{"plain": plain, "stage-in": staged, "clustered": clustered} {
		ex := newFakeExecutor()
		idx := p.Indexed()
		for pos, n := range idx.Indegree {
			if n == 0 {
				ex.failures[idx.Order[pos]] = 10
			}
		}
		res, err := Run(p, ex, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteRescue(&buf, p, res); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rescue, err := dax.ReadXML(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		replanned, err := planner.New(rescue, cats, planner.Options{Site: "test"})
		if err != nil {
			t.Fatalf("%s: replanning the rescue DAX: %v", name, err)
		}
		if replanned.Len() != p.Len() {
			t.Errorf("%s: rescue of failed roots has %d jobs, want all %d", name, replanned.Len(), p.Len())
		}
		for _, had := range p.Jobs() {
			got := replanned.Job(had.ID)
			if got == nil {
				t.Errorf("%s: %s missing from the replanned rescue", name, had.ID)
				continue
			}
			if had.ExecSeconds == 0 || math.Abs(got.ExecSeconds-had.ExecSeconds) > 0.0005 {
				t.Errorf("%s: %s replans with ExecSeconds %v, the failed run had %v", name, had.ID, got.ExecSeconds, had.ExecSeconds)
			}
			if len(had.Args)+len(got.Args) > 0 && !reflect.DeepEqual(got.Args, had.Args) {
				t.Errorf("%s: %s replans with Args %v, the failed run had %v", name, had.ID, got.Args, had.Args)
			}
		}
	}
}

// TestRescueDAXIsPrivate: a rescue DAX shares no storage with the plan it
// was cut from. Clones of one master plan share its jobs' Args and Uses
// arrays, so a write through a rescue job's Args or Uses must reach neither
// the failed run's clone, nor the master, nor a second clone of it.
func TestRescueDAXIsPrivate(t *testing.T) {
	w := dax.New("pair")
	w.NewJob("A", "t").AddInput("in", 10).AddOutput("mid", 10).SetProfile("pegasus", "runtime", "10").Args = []string{"-i", "in"}
	w.NewJob("B", "t").AddInput("mid", 10).AddOutput("out", 10).SetProfile("pegasus", "runtime", "10").Args = []string{"-i", "mid"}
	if err := w.AddDependency("A", "B"); err != nil {
		t.Fatal(err)
	}
	master := makePlan(t, w)
	run, other := master.Clone(), master.Clone()
	ex := newFakeExecutor()
	ex.failures["A"] = 10
	res, err := Run(run, ex, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rescue, err := rescueDAX(run, res)
	if err != nil {
		t.Fatal(err)
	}
	if rescue.Len() != 2 {
		t.Fatalf("rescue of a failed root has %d jobs, want 2", rescue.Len())
	}
	// snapshot renders every job's Args and Uses as the plan holds them.
	snapshot := func(p *planner.Plan) string {
		var b strings.Builder
		graph := p.Graph()
		for _, j := range p.Jobs() {
			fmt.Fprintf(&b, "%s %q %v\n", j.ID, j.Args, graph.Job(j.ID).Uses)
		}
		return b.String()
	}
	want := snapshot(master)
	for _, j := range rescue.Jobs() {
		for i := range j.Args {
			j.Args[i] = "written"
		}
		for i := range j.Uses {
			j.Uses[i].LFN = "written"
		}
	}
	for _, p := range []struct {
		name string
		plan *planner.Plan
	}{{"master", master}, {"failed run's clone", run}, {"second clone", other}} {
		if got := snapshot(p.plan); got != want {
			t.Errorf("a write through the rescue DAX reached the %s:\n%s\nwant\n%s", p.name, got, want)
		}
	}
}
