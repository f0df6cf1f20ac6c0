package planner

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pegflow/internal/catalog"
	"pegflow/internal/dax"
)

// TestPlanHasOneTopology parses the package's non-test sources: one Index
// literal (buildIndex), no finalize, no field of Plan or Index left over from
// the stored graph, and dax.New called by the Graph view alone — so index and
// slab are the only topology a plan holds, and one function builds the index.
func TestPlanHasOneTopology(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	isDax := func(e ast.Expr, name string) bool {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != name {
			return false
		}
		x, ok := sel.X.(*ast.Ident)
		return ok && x.Name == "dax"
	}
	indexLiterals := 0
	var daxNewIn []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn := "a declaration"
				if fd, ok := decl.(*ast.FuncDecl); ok {
					fn = fd.Name.Name
					if fn == "finalize" {
						t.Error("finalize is back: buildIndex is the one index builder")
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						if id, ok := n.Type.(*ast.Ident); ok && id.Name == "Index" {
							indexLiterals++
						}
					case *ast.CallExpr:
						if isDax(n.Fun, "New") {
							daxNewIn = append(daxNewIn, fn)
						}
					case *ast.TypeSpec:
						st, ok := n.Type.(*ast.StructType)
						if !ok || (n.Name.Name != "Plan" && n.Name.Name != "Index") {
							break
						}
						for _, f := range st.Fields.List {
							typ := f.Type
							if star, ok := typ.(*ast.StarExpr); ok {
								typ = star.X
							}
							if isDax(typ, "Workflow") {
								t.Errorf("%s has a dax.Workflow field: a plan stores no graph", n.Name.Name)
							}
							for _, name := range f.Names {
								if name.Name == "graph" || name.Name == "edges" {
									t.Errorf("%s.%s is back", n.Name.Name, name.Name)
								}
							}
						}
					}
					return true
				})
			}
		}
	}
	if indexLiterals != 1 {
		t.Errorf("%d Index literals in non-test planner, want 1 (buildIndex)", indexLiterals)
	}
	if !reflect.DeepEqual(daxNewIn, []string{"Graph"}) {
		t.Errorf("dax.New called in %v, want in Graph alone", daxNewIn)
	}
}

// namedPlans are a planned, a multi-site, a twice-clustered and an assembled
// plan over a fan of the given width.
func namedPlans(t *testing.T, width int) map[string]*Plan {
	t.Helper()
	cats := testCatalogs(t, "split", "run_cap3", "merge")
	planned, err := New(fanWorkflow(t, width), cats, Options{Site: "osg"})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := NewMulti(fanWorkflow(t, width), cats, MultiOptions{Sites: []string{"sandhills", "osg"}})
	if err != nil {
		t.Fatal(err)
	}
	clustered := planned
	for range 2 {
		if clustered, err = Cluster(clustered, ClusterOptions{MaxTasksPerJob: 2}); err != nil {
			t.Fatal(err)
		}
	}
	handBuilt := fanWorkflow(t, width)
	var jobs []Job
	for _, gj := range handBuilt.Jobs() {
		jobs = append(jobs, Job{ID: gj.ID, Transformation: gj.Transformation, Site: "osg"})
	}
	assembled, err := Assemble(handBuilt, "osg", jobs)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Plan{"planned": planned, "multi-site": multi, "clustered twice": clustered, "assembled": assembled}
}

var nameSink string

// TestPlanNameMatchesGraph: Name is the name of the Graph view, and costs
// at most one allocation whatever the plan's size — `pegflow run` prints it
// for plans whose view would cost O(n).
func TestPlanNameMatchesGraph(t *testing.T) {
	for name, p := range namedPlans(t, 6) {
		if got, want := p.Name(), p.Graph().Name; got != want {
			t.Errorf("%s: Name() = %q, Graph().Name = %q", name, got, want)
		}
	}
	if got := namedPlans(t, 6)["clustered twice"].Name(); got != "fan-osg-clustered-clustered" {
		t.Errorf("twice-clustered plan is named %q", got)
	}
	allocs := map[int]float64{}
	for _, width := range []int{2000, 20000} {
		for name, p := range namedPlans(t, width) {
			got := testing.AllocsPerRun(20, func() { nameSink = p.Name() })
			if got > 1 {
				t.Errorf("%s, width %d: Name allocates %v times, want at most 1", name, width, got)
			}
			allocs[width] += got
		}
	}
	if allocs[2000] != allocs[20000] {
		t.Errorf("Name's allocations grow with the plan: %v at width 2000, %v at 20000", allocs[2000], allocs[20000])
	}
}

// workflowSnapshot deep-copies everything observable about a workflow.
func workflowSnapshot(w *dax.Workflow) map[string]any {
	out := map[string]any{"name": w.Name, "edges": w.Edges()}
	var inserted []string
	for _, j := range w.Jobs() {
		inserted = append(inserted, j.ID)
		out["job/"+j.ID] = *j.Clone()
		out["parents/"+j.ID] = w.Parents(j.ID)
		out["children/"+j.ID] = w.Children(j.ID)
	}
	out["inserted"] = inserted
	return out
}

// indexSnapshot deep-copies an Index.
func indexSnapshot(idx *Index) map[string]any {
	byID := make(map[string]int32, len(idx.ByID))
	for id, pos := range idx.ByID {
		byID[id] = pos
	}
	copy2 := func(in [][]int32) [][]int32 {
		out := make([][]int32, len(in))
		for i, run := range in {
			out[i] = append([]int32(nil), run...)
		}
		return out
	}
	return map[string]any{
		"order": append([]string(nil), idx.Order...), "byID": byID,
		"children": copy2(idx.Children), "indegree": append([]int32(nil), idx.Indegree...),
		"levels": copy2(idx.Levels), "insertion": append([]int32(nil), idx.insertion...),
	}
}

// TestGraphViewIsPrivate: what Graph returns belongs to its caller. On a
// planned, an assembled and a clustered plan, growing and editing one view
// with every method clonegate used to forbid changes neither the plan's
// index, a later view, a clone's view nor the workflow the plan was built
// from; and eight goroutines deriving views from clones of one master share
// nothing they write (`make race` runs this under -race).
func TestGraphViewIsPrivate(t *testing.T) {
	cats := testCatalogs(t, "split", "run_cap3", "merge")
	if err := cats.Replicas.Add("alignments.out", catalog.Replica{Site: "local", PFN: "/d/a"}); err != nil {
		t.Fatal(err)
	}
	abstract := fanWorkflow(t, 6)
	planned, err := NewMulti(abstract, cats, MultiOptions{Sites: []string{"sandhills", "osg"}, AddStageIn: true})
	if err != nil {
		t.Fatal(err)
	}
	clustered, err := Cluster(planned, ClusterOptions{MaxTasksPerJob: 2})
	if err != nil {
		t.Fatal(err)
	}
	handBuilt := fanWorkflow(t, 4)
	var jobs []Job
	for _, gj := range handBuilt.Jobs() {
		jobs = append(jobs, Job{ID: gj.ID, Transformation: gj.Transformation, Site: "osg"})
	}
	assembled, err := Assemble(handBuilt, "osg", jobs)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		plan   *Plan
		master *dax.Workflow
	}{
		{"planned", planned, abstract},
		{"clustered", clustered, abstract},
		{"assembled", assembled, handBuilt},
	} {
		p, clone := tc.plan, tc.plan.Clone()
		observe := func() map[string]any {
			return map[string]any{
				"index":  indexSnapshot(p.Indexed()),
				"view":   workflowSnapshot(p.Graph()),
				"clone":  workflowSnapshot(clone.Graph()),
				"master": workflowSnapshot(tc.master),
			}
		}
		before := observe()

		view := p.Graph()
		first, last := view.Jobs()[0], view.Jobs()[view.Len()-1]
		if err := view.AddJob(&dax.Job{ID: "extra", Transformation: "t"}); err != nil {
			t.Fatal(err)
		}
		view.NewJob("extra2", "t")
		if err := view.AddDependency(last.ID, "extra"); err != nil {
			t.Fatal(err)
		}
		if err := view.AddDependency("extra", "extra2"); err != nil {
			t.Fatal(err)
		}
		for _, j := range view.Jobs() {
			j.SetProfile("pegasus", "runtime", "1").AddInput("scribble.in", 1).AddOutput("scribble_"+j.ID, 1)
		}
		first.Priority, first.Args = 99, []string{"--scribbled"}

		if after := observe(); !reflect.DeepEqual(before, after) {
			for k := range before {
				if !reflect.DeepEqual(before[k], after[k]) {
					t.Errorf("%s: editing a view changed the %s", tc.name, k)
				}
			}
		}
		if got := workflowSnapshot(view); reflect.DeepEqual(got, before["view"]) {
			t.Errorf("%s: the edits did not take on the view itself", tc.name)
		}
	}

	want := workflowSnapshot(planned.Graph())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			view := planned.Clone().Graph()
			if !reflect.DeepEqual(workflowSnapshot(view), want) {
				t.Error("a clone's view differs from its master's")
			}
			for _, j := range view.Jobs() {
				j.SetProfile("pegasus", "runtime", "2").AddInput("scribble.in", 2)
			}
			if err := view.AddDependency("merge", view.NewJob("extra", "t").ID); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(workflowSnapshot(planned.Graph()), want) {
		t.Error("concurrent view edits reached the master")
	}
}
