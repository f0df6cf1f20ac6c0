// The single-site graph builder planner.New had to itself before it became
// the one-site case of Resolve, kept as the reference New is compared with.
// The test is external so that it can plan the paper's own workflows
// (package workflow imports planner).

package planner_test

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"pegflow/internal/catalog"
	"pegflow/internal/dax"
	"pegflow/internal/planner"
	"pegflow/internal/workflow"
)

// referenceNew is the deleted New: one pass over the abstract jobs in
// insertion order resolving each at the site, the workflow's edges, one
// stage-in job, Assemble in place of the package-internal finalize.
func referenceNew(abstract *dax.Workflow, cats planner.Catalogs, opts planner.Options) (*planner.Plan, error) {
	if err := abstract.Validate(); err != nil {
		return nil, fmt.Errorf("planner: invalid abstract workflow: %w", err)
	}
	if opts.Site == "" {
		return nil, fmt.Errorf("planner: no target site given")
	}
	site, err := cats.Sites.Lookup(opts.Site)
	if err != nil {
		return nil, fmt.Errorf("planner: %w", err)
	}

	work := abstract
	graph := dax.New(work.Name + "-" + opts.Site)
	jobs := make([]planner.Job, 0, work.Len()+1) // +1: the stage-in job

	// Resolve each job against the transformation catalog and compute
	// its planning attributes.
	for _, aj := range work.Jobs() {
		tc, err := cats.Transformations.Lookup(aj.Transformation, opts.Site)
		if err != nil {
			return nil, fmt.Errorf("planner: job %q: %w", aj.ID, err)
		}
		pj, err := referenceJobAttributes(aj)
		if err != nil {
			return nil, err
		}
		pj.Site = opts.Site
		if !tc.Installed {
			if site.SharedSoftware {
				return nil, fmt.Errorf(
					"planner: transformation %q not installed at shared-software site %q",
					aj.Transformation, opts.Site)
			}
			pj.NeedsInstall = true
			pj.InstallBytes = tc.InstallBytes
		}
		gj := &dax.Job{ID: aj.ID, Transformation: aj.Transformation, Uses: aj.Uses, Priority: aj.Priority}
		if err := graph.AddJob(gj); err != nil {
			return nil, err
		}
		jobs = append(jobs, pj)
	}
	for _, aj := range work.Jobs() {
		for _, parent := range work.Parents(aj.ID) {
			if err := graph.AddDependency(parent, aj.ID); err != nil {
				return nil, err
			}
		}
	}

	if opts.AddStageIn {
		if jobs, err = referenceAddStageIn(graph, jobs, work, cats, site); err != nil {
			return nil, err
		}
	}
	return planner.Assemble(graph, opts.Site, jobs)
}

func referenceJobAttributes(aj *dax.Job) (planner.Job, error) {
	pj := planner.Job{
		ID:             aj.ID,
		Transformation: aj.Transformation,
		Args:           aj.Args,
		Priority:       aj.Priority,
	}
	if rt := aj.Profile("pegasus", "runtime"); rt != "" {
		v, err := strconv.ParseFloat(rt, 64)
		if err != nil || v < 0 {
			return planner.Job{}, fmt.Errorf("planner: job %q: bad pegasus::runtime %q", aj.ID, rt)
		}
		pj.ExecSeconds = v
	}
	for _, u := range aj.Uses {
		if u.Link == dax.LinkInput {
			pj.InputBytes += u.Size
		} else {
			pj.OutputBytes += u.Size
		}
	}
	return pj, nil
}

// referenceAddStageIn synthesizes a single stage_in job transferring every
// external input (a file consumed but produced by no job) to the site, and
// makes it a parent of all consumers. External inputs must have a registered
// replica.
func referenceAddStageIn(graph *dax.Workflow, jobs []planner.Job, work *dax.Workflow, cats planner.Catalogs, site *catalog.Site) ([]planner.Job, error) {
	produced := make(map[string]bool)
	for _, j := range work.Jobs() {
		for _, lfn := range j.Outputs() {
			produced[lfn] = true
		}
	}
	type ext struct {
		lfn  string
		size int64
	}
	var externals []ext
	consumers := make(map[string][]string)
	seen := make(map[string]bool)
	for _, j := range work.Jobs() {
		for _, u := range j.Uses {
			if u.Link != dax.LinkInput || produced[u.LFN] {
				continue
			}
			if !cats.Replicas.Has(u.LFN) {
				return nil, fmt.Errorf("planner: external input %q of job %q has no replica", u.LFN, j.ID)
			}
			consumers[u.LFN] = append(consumers[u.LFN], j.ID)
			if !seen[u.LFN] {
				seen[u.LFN] = true
				externals = append(externals, ext{u.LFN, u.Size})
			}
		}
	}
	if len(externals) == 0 {
		return jobs, nil
	}
	sort.Slice(externals, func(i, j int) bool { return externals[i].lfn < externals[j].lfn })

	id := "stage_in_" + site.Name // was "stage_in_0": the one deliberate difference
	gj := &dax.Job{ID: id, Transformation: planner.StageInTransformation}
	var totalBytes int64
	for _, e := range externals {
		gj.Uses = append(gj.Uses, dax.Use{LFN: e.lfn, Link: dax.LinkOutput, Size: e.size})
		totalBytes += e.size
	}
	if err := graph.AddJob(gj); err != nil {
		return nil, err
	}
	mbps := site.StageInMBps
	if mbps <= 0 {
		mbps = 100
	}
	jobs = append(jobs, planner.Job{
		ID:             id,
		Transformation: planner.StageInTransformation,
		Site:           site.Name,
		ExecSeconds:    float64(totalBytes) / (mbps * 1e6),
		OutputBytes:    totalBytes,
		// Stage-in runs on the submit side; it never needs installs
		// and gets top priority so transfers start immediately.
		Priority: 1 << 20,
	})
	added := make(map[string]bool)
	for _, e := range externals {
		for _, c := range consumers[e.lfn] {
			if added[c] {
				continue
			}
			added[c] = true
			if err := graph.AddDependency(id, c); err != nil {
				return nil, err
			}
		}
	}
	return jobs, nil
}

// snapshot is everything observable about a plan but Sites (nil from
// Assemble).
func snapshot(t *testing.T, p *planner.Plan) map[string]any {
	t.Helper()
	idx, err := p.Indexed()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]any{
		"name": p.Graph.Name, "site": p.Site, "order": idx.Order,
		"indegree": idx.Indegree, "children": idx.Children, "levels": idx.Levels,
	}
	var inserted []string
	for _, j := range p.Jobs() {
		inserted = append(inserted, j.ID)
	}
	out["inserted"] = inserted
	for i, id := range idx.Order {
		out["job/"+id] = *p.JobAt(int32(i))
		out["graph/"+id] = *p.Graph.Job(id).Clone()
		out["parents/"+id] = p.Graph.Parents(id)
	}
	return out
}

// fanDAX is a split / width-way run_cap3 / merge workflow over the paper's
// transformations with args, priorities and two external inputs.
func fanDAX(t *testing.T, width int) *dax.Workflow {
	t.Helper()
	w := dax.New("fan")
	w.NewJob("split", workflow.TrSplit).AddInput("alignments.out", 1000).AddInput("transcripts.fasta", 500).
		AddOutput("chunks", 10).SetProfile("pegasus", "runtime", "60")
	w.Job("split").Args = []string{"-n", strconv.Itoa(width)}
	for i := 0; i < width; i++ {
		id := fmt.Sprintf("run_cap3_%03d", i)
		j := w.NewJob(id, workflow.TrRunCAP3).AddInput("chunks", 10).AddInput("transcripts.fasta", 500).
			AddOutput("joined_"+id, 7).SetProfile("pegasus", "runtime", strconv.Itoa(100+i))
		j.Priority = i % 3
		if err := w.AddDependency("split", id); err != nil {
			t.Fatal(err)
		}
	}
	w.NewJob("merge", workflow.TrMerge).AddOutput("assembly", 70).SetProfile("pegasus", "runtime", "30")
	for i := 0; i < width; i++ {
		id := fmt.Sprintf("run_cap3_%03d", i)
		w.Job("merge").AddInput("joined_"+id, 7)
		if err := w.AddDependency(id, "merge"); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// outOfOrderDAX inserts children before their parents and the two chains'
// leaves in the opposite order to their roots.
func outOfOrderDAX(t *testing.T) *dax.Workflow {
	t.Helper()
	w := dax.New("out-of-order")
	for _, id := range []string{"a_leaf", "b_leaf", "b_mid", "b_root", "a_root"} {
		w.NewJob(id, workflow.TrRunCAP3).AddInput("transcripts.fasta", 500).SetProfile("pegasus", "runtime", "5")
	}
	for _, edge := range [][2]string{{"a_root", "a_leaf"}, {"b_root", "b_mid"}, {"b_mid", "b_leaf"}} {
		if err := w.AddDependency(edge[0], edge[1]); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// TestNewEqualsReferenceBuilder: on every paper site, with and without the
// stage-in job, New gives the plan the deleted single-site builder gave —
// graph name and jobs, edges, index order, indegrees, adjacency, levels,
// insertion order and every Job field — with the stage-in job's ID the one
// difference. For a workflow whose jobs were inserted out of topological
// order the executable graph is now inserted in topological order, so
// Jobs() and the order within a level follow that; the index, the edges and
// every job do not move.
func TestNewEqualsReferenceBuilder(t *testing.T) {
	w := workflow.PaperWorkload(42)
	cats, err := workflow.PaperCatalogs(w, 300, 600)
	if err != nil {
		t.Fatal(err)
	}
	fixtures := map[string]*dax.Workflow{
		"fan1":       fanDAX(t, 1),
		"fan17":      fanDAX(t, 17),
		"outOfOrder": outOfOrderDAX(t),
	}
	for _, n := range []int{10, 100, 500} {
		abstract, err := workflow.BuildDAX(workflow.BuilderConfig{N: n, Workload: w})
		if err != nil {
			t.Fatal(err)
		}
		fixtures[abstract.Name] = abstract
	}
	sortedLevels := func(v any) any {
		var out [][]int32
		for _, level := range v.([][]int32) {
			level = append([]int32(nil), level...)
			sort.Slice(level, func(i, j int) bool { return level[i] < level[j] })
			out = append(out, level)
		}
		return out
	}
	for name, abstract := range fixtures {
		for _, site := range []string{"sandhills", "osg", "cloud"} {
			for _, stageIn := range []bool{false, true} {
				opts := planner.Options{Site: site, AddStageIn: stageIn}
				ref, err := referenceNew(abstract, cats, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := planner.New(abstract, cats, opts)
				if err != nil {
					t.Fatal(err)
				}
				want, have := snapshot(t, ref), snapshot(t, got)
				if name == "outOfOrder" {
					topo, _ := abstract.TopoSort()
					if inserted := have["inserted"].([]string); reflect.DeepEqual(inserted, want["inserted"]) ||
						!reflect.DeepEqual(inserted[:len(topo)], topo) {
						t.Errorf("%s %s: Jobs() order %v, want the topological %v, not the reference's %v",
							name, site, inserted, topo, want["inserted"])
					}
					for _, v := range []map[string]any{want, have} {
						delete(v, "inserted")
						v["levels"] = sortedLevels(v["levels"])
					}
				}
				if len(want) != len(have) {
					t.Errorf("%s %s stage-in %v: %d jobs, reference builder %d", name, site, stageIn, got.Graph.Len(), ref.Graph.Len())
				}
				for k, v := range want {
					if !reflect.DeepEqual(v, have[k]) {
						t.Errorf("%s %s stage-in %v: %s = %+v, reference builder %+v", name, site, stageIn, k, have[k], v)
					}
				}
			}
		}
	}
}
