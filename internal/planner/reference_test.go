// The single-site graph builder planner.New had to itself before it became
// the one-site case of Resolve, kept as the reference New is compared with,
// and the clustering pass that rebuilt a dax.Workflow per call before
// Cluster worked on the index, kept as the reference Cluster is compared
// with. The tests are external so that they can plan the paper's own
// workflows (package workflow imports planner).

package planner_test

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
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
	idx := p.Indexed()
	g := p.Graph() // once: a clustered plan derives it per call
	out := map[string]any{
		"name": g.Name, "site": p.Site, "order": idx.Order,
		"indegree": idx.Indegree, "children": idx.Children, "levels": idx.Levels,
	}
	var inserted []string
	for _, j := range p.Jobs() {
		inserted = append(inserted, j.ID)
	}
	out["inserted"] = inserted
	for i, id := range idx.Order {
		out["job/"+id] = *p.JobAt(int32(i))
		out["graph/"+id] = *g.Job(id).Clone()
		out["parents/"+id] = g.Parents(id)
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
					t.Errorf("%s %s stage-in %v: %d jobs, reference builder %d", name, site, stageIn, got.Graph().Len(), ref.Graph().Len())
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

// referenceBucket accumulates the members of one composite under
// construction.
type referenceBucket struct {
	id    string
	site  string
	tr    string
	ids   []string
	exec  float64
	level int
}

// referenceCluster is the deleted Cluster body: a map from job ID to output
// job ID, per-level maps of open buckets keyed by site and transformation, a
// new dax.Workflow of the output jobs and rewired edges, and Assemble in
// place of the package-internal finalize (so the result has no Sites).
func referenceCluster(p *planner.Plan, opts planner.ClusterOptions) (*planner.Plan, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if !opts.Enabled() {
		return p, nil
	}
	eligible := func(j *planner.Job) bool {
		if j.Transformation == planner.StageInTransformation {
			return false
		}
		// Composites of a previous Cluster pass are left alone.
		if len(j.Members) > 0 {
			return false
		}
		if len(opts.Transformations) == 0 {
			return true
		}
		for _, tr := range opts.Transformations {
			if tr == j.Transformation {
				return true
			}
		}
		return false
	}

	idx := p.Indexed()
	pg := p.Graph()

	// group maps every original job ID to its output job ID (itself when
	// unclustered, the composite ID otherwise).
	group := make(map[string]string, pg.Len())
	var buckets []*referenceBucket
	byID := make(map[string]*referenceBucket)

	for li, level := range idx.Levels {
		// Open at most one bucket per (site, transformation) key; close it
		// when full (member cap) or heavy enough (runtime target).
		open := make(map[string]*referenceBucket)
		seq := make(map[string]int)
		for _, pos := range level {
			id, j := idx.Order[pos], p.JobAt(pos)
			if !eligible(j) {
				group[id] = id
				continue
			}
			if opts.TargetJobSeconds > 0 && j.ExecSeconds >= opts.TargetJobSeconds {
				group[id] = id
				continue
			}
			key := j.Site + "\x00" + j.Transformation
			b := open[key]
			if b == nil {
				b = &referenceBucket{
					id: fmt.Sprintf("cluster_%s_%s_l%d_%d",
						j.Transformation, j.Site, li, seq[key]),
					site: j.Site, tr: j.Transformation, level: li,
				}
				seq[key]++
				open[key] = b
				buckets = append(buckets, b)
				byID[b.id] = b
			}
			b.ids = append(b.ids, id)
			b.exec += j.ExecSeconds
			group[id] = b.id
			if (opts.MaxTasksPerJob > 0 && len(b.ids) >= opts.MaxTasksPerJob) ||
				(opts.TargetJobSeconds > 0 && b.exec >= opts.TargetJobSeconds) {
				delete(open, key)
			}
		}
	}

	// Unwrap singleton buckets: a composite of one task is just the task.
	kept := buckets[:0]
	for _, b := range buckets {
		if len(b.ids) == 1 {
			group[b.ids[0]] = b.ids[0]
			delete(byID, b.id)
			continue
		}
		kept = append(kept, b)
	}
	buckets = kept

	folded := 0
	for _, b := range buckets {
		folded += len(b.ids)
	}
	graph := dax.New(pg.Name + "-clustered")
	jobs := make([]planner.Job, 0, p.Len()-folded+len(buckets))

	emitted := make(map[string]bool)
	for _, gj := range pg.Jobs() {
		gid := group[gj.ID]
		if emitted[gid] {
			continue
		}
		emitted[gid] = true
		if gid == gj.ID {
			cp := *gj
			if err := graph.AddJob(&cp); err != nil {
				return nil, err
			}
			jobs = append(jobs, *p.Job(gj.ID))
			continue
		}
		b := byID[gid]
		if pg.Job(b.id) != nil {
			return nil, fmt.Errorf("planner: clustering: composite ID %q collides with an existing job", b.id)
		}
		nj := &dax.Job{ID: b.id, Transformation: b.tr}
		cj := planner.Job{
			ID:             b.id,
			Transformation: b.tr,
			Site:           b.site,
			ExecSeconds:    b.exec,
		}
		for _, mid := range b.ids {
			m := p.Job(mid)
			nj.Uses = append(nj.Uses, pg.Job(mid).Uses...)
			if m.Priority > cj.Priority {
				cj.Priority = m.Priority
			}
			// All members resolve the same transformation at the same
			// site, so they share one install decision.
			cj.NeedsInstall = m.NeedsInstall
			cj.InstallBytes = m.InstallBytes
			cj.InputBytes += m.InputBytes
			cj.OutputBytes += m.OutputBytes
			cj.Members = append(cj.Members, planner.Member{TaskID: mid, ExecSeconds: m.ExecSeconds})
		}
		nj.Priority = cj.Priority
		if err := graph.AddJob(nj); err != nil {
			return nil, err
		}
		jobs = append(jobs, cj)
	}

	// Rewire dependencies through the grouping, skipping intra-group
	// edges. Same-level grouping makes intra-group edges impossible; an
	// occurrence means the level computation is broken.
	for pos, kids := range idx.Children {
		parent := idx.Order[pos]
		gp := group[parent]
		for _, c := range kids {
			child := idx.Order[c]
			gc := group[child]
			if gp == gc {
				return nil, fmt.Errorf(
					"planner: clustering folded dependent jobs %q -> %q into composite %q",
					parent, child, gp)
			}
			if err := graph.AddDependency(gp, gc); err != nil {
				return nil, err
			}
		}
	}

	out, err := planner.Assemble(graph, p.Site, jobs)
	if err != nil {
		return nil, fmt.Errorf("planner: clustered workflow broken: %w", err)
	}
	return out, nil
}

// clusteredSnapshot adds to snapshot what a plan Cluster wrote directly must
// also get right: the index's ID map and, of the dax view, the job order,
// the edge count and the critical path.
func clusteredSnapshot(t *testing.T, p *planner.Plan) map[string]any {
	t.Helper()
	out := snapshot(t, p)
	idx := p.Indexed()
	g := p.Graph()
	cp, err := g.CriticalPathLength()
	if err != nil {
		t.Fatal(err)
	}
	var inserted []string
	for _, gj := range g.Jobs() {
		inserted = append(inserted, gj.ID)
	}
	out["byID"], out["len"] = idx.ByID, p.Len()
	out["graph inserted"], out["graph edges"], out["graph critical path"] = inserted, g.Edges(), cp
	return out
}

// requireClusterEqualsReference clusters the plan both ways and compares
// the snapshots, the Sites (which Assemble drops) apart.
func requireClusterEqualsReference(t *testing.T, label string, p *planner.Plan, opts planner.ClusterOptions) *planner.Plan {
	t.Helper()
	ref, err := referenceCluster(p, opts)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	got, err := planner.Cluster(p, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !reflect.DeepEqual(got.Sites, p.Sites) {
		t.Errorf("%s: Sites = %v, the input's are %v", label, got.Sites, p.Sites)
	}
	want, have := clusteredSnapshot(t, ref), clusteredSnapshot(t, got)
	if len(want) != len(have) {
		t.Errorf("%s: %d jobs, reference %d", label, got.Len(), ref.Len())
	}
	for k, v := range want {
		if !reflect.DeepEqual(v, have[k]) {
			t.Errorf("%s: %s = %+v, reference %+v", label, k, have[k], v)
		}
	}
	return got
}

// TestClusterEqualsReferenceBuilder: over the paper's workflow at four
// sizes, placed on one site and on two under every policy, with and without
// stage-in jobs, Cluster gives under each kind of option the plan the
// graph-rebuilding pass gave — index, slab, insertion order and the dax view
// derived from them.
func TestClusterEqualsReferenceBuilder(t *testing.T) {
	w := workflow.PaperWorkload(42)
	cats, err := workflow.PaperCatalogs(w, 300, 600)
	if err != nil {
		t.Fatal(err)
	}
	optsList := []planner.ClusterOptions{
		{MaxTasksPerJob: 2},
		{MaxTasksPerJob: 16},
		{TargetJobSeconds: 600},
		{TargetJobSeconds: 1800},
		{MaxTasksPerJob: 8, TargetJobSeconds: 1800},
		{MaxTasksPerJob: 16, Transformations: []string{workflow.TrRunCAP3, workflow.TrSplit}},
	}
	type placement struct {
		sites  []string
		policy string
	}
	placements := []placement{{sites: []string{"osg"}}, {sites: []string{"sandhills"}}}
	for _, policy := range planner.PolicyNames() {
		placements = append(placements, placement{[]string{"sandhills", "osg"}, policy})
	}
	for _, n := range []int{1, 10, 500, 2000} {
		abstract, err := workflow.BuildDAX(workflow.BuilderConfig{N: n, Workload: w})
		if err != nil {
			t.Fatal(err)
		}
		for _, pl := range placements {
			for _, stageIn := range []bool{false, true} {
				mopts := planner.MultiOptions{Sites: pl.sites, AddStageIn: stageIn}
				if pl.policy != "" {
					if mopts.Policy, err = planner.NewPolicy(pl.policy); err != nil {
						t.Fatal(err)
					}
				}
				plan, err := planner.NewMulti(abstract, cats, mopts)
				if err != nil {
					t.Fatal(err)
				}
				for _, opts := range optsList {
					label := fmt.Sprintf("n=%d sites=%s policy=%q stage-in=%v %+v",
						n, strings.Join(pl.sites, ","), pl.policy, stageIn, opts)
					got := requireClusterEqualsReference(t, label, plan, opts)
					if n == 10 && opts.MaxTasksPerJob == 2 {
						// A second pass leaves the first pass's composites
						// alone, whichever pass made them.
						requireClusterEqualsReference(t, label+" twice", got, planner.ClusterOptions{MaxTasksPerJob: 3})
					}
				}
			}
		}
	}
}
