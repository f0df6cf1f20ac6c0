package planner

import (
	"fmt"
	"sort"
	"strconv"

	"pegflow/internal/catalog"
	"pegflow/internal/dax"
)

// Job is one executable job in a plan.
type Job struct {
	// ID identifies the executable job (equal to the abstract job ID
	// except for synthesized stage-in and clustered jobs).
	ID string
	// Transformation is the logical executable name.
	Transformation string
	// Args are the command-line arguments (empty for clustered jobs;
	// the per-task arguments live in the task list).
	Args []string
	// Site is the execution site.
	Site string
	// Priority orders ready jobs; higher runs first.
	Priority int
	// ExecSeconds is the estimated execution time on a reference-speed
	// node (from the job's "pegasus::runtime" profile; 0 = unknown).
	ExecSeconds float64
	// NeedsInstall marks jobs that must download and install their
	// software stack on the node before executing (OSG-style sites).
	NeedsInstall bool
	// InstallBytes is the size of the software stack to stage when
	// NeedsInstall is set.
	InstallBytes int64
	// InputBytes and OutputBytes total the declared file sizes.
	InputBytes, OutputBytes int64
	// Tasks lists the abstract job IDs folded into this executable job
	// (len > 1 only for clustered jobs; empty for synthesized jobs).
	Tasks []string
	// Members lists the payload tasks of a composite job built by the
	// post-planning Cluster pass, in on-node execution order, with their
	// per-task runtime estimates. Executors that understand Members run
	// the payloads sequentially on one slot — one dispatch and one
	// software install amortized over all of them — and emit one
	// kickstart record per member. Empty for ordinary jobs.
	Members []Member
}

// Member is one payload task folded into a composite (clustered) job.
type Member struct {
	// TaskID is the folded executable job's ID.
	TaskID string
	// ExecSeconds is the member's reference-speed runtime estimate.
	ExecSeconds float64
}

// Plan is an executable workflow bound to a site. Its shape — Graph, Sites,
// SiteEntry and the topological index — is immutable once the plan is built
// and shared by every Clone; only the job slab is per plan, and this package
// exports nothing that writes it. Nothing outside this package may write a
// Job field through a pointer it was handed, or grow or edit Graph
// (clonegate enforces both).
type Plan struct {
	// Graph holds the executable jobs and their dependencies. Its Job
	// entries are structural only; per-job planning attributes live in
	// the planned jobs (Job, JobAt, Jobs).
	Graph *dax.Workflow
	// Site is the execution site name. For multi-site plans (NewMulti) it
	// is the comma-joined site list; per-job sites live in the jobs.
	Site string
	// Sites lists the target sites of a multi-site plan, in the order
	// given to NewMulti. It is nil for single-site plans.
	Sites []string
	// SiteEntry is the resolved site catalog entry. It is nil for
	// multi-site plans, whose jobs resolve sites individually.
	SiteEntry *catalog.Site

	// index is the immutable dense-integer topology (see Indexed), built
	// at plan construction.
	index *Index
	// jobs holds the planned jobs by value, jobs[i] being the job at
	// index.Order[i]. Constructors append in graph insertion order and
	// finalize permutes the slab into index order in place.
	jobs []Job
}

// Assemble wraps a hand-built executable graph and its planned jobs — one
// per graph job, in any order — as a single-site plan, for callers that
// bypass catalog resolution. It takes ownership of jobs.
func Assemble(graph *dax.Workflow, site string, jobs []Job) (*Plan, error) {
	p := &Plan{Graph: graph, Site: site, jobs: jobs}
	if err := p.finalize(); err != nil {
		return nil, err
	}
	return p, nil
}

// Jobs returns the plan's jobs in insertion order.
func (p *Plan) Jobs() []*Job {
	out := make([]*Job, 0, len(p.jobs))
	for _, j := range p.Graph.Jobs() {
		out = append(out, p.Job(j.ID))
	}
	return out
}

// Job returns the planned job with the given ID, or nil.
func (p *Plan) Job(id string) *Job {
	if pos, ok := p.index.ByID[id]; ok {
		return &p.jobs[pos]
	}
	return nil
}

// TotalExecSeconds sums the estimated execution time over all jobs — the
// serial-work content of the plan. It adds in index order, so equal plans
// give bit-equal sums.
func (p *Plan) TotalExecSeconds() float64 {
	var sum float64
	for i := range p.jobs {
		sum += p.jobs[i].ExecSeconds
	}
	return sum
}

// Options configures planning.
type Options struct {
	// Site is the target execution site (required).
	Site string
	// AddStageIn synthesizes a stage-in job for external inputs that
	// have replicas registered away from the site.
	AddStageIn bool
	// ClusterSize is the horizontal clustering factor: the maximum
	// number of same-transformation, same-level tasks merged into one
	// clustered job. 0 or 1 disables clustering.
	ClusterSize int
	// ClusterTransformations restricts clustering to the listed
	// transformations; empty means all are eligible.
	ClusterTransformations []string
}

// Catalogs bundles the three catalogs planning consults.
type Catalogs struct {
	Sites           *catalog.SiteCatalog
	Transformations *catalog.TransformationCatalog
	Replicas        *catalog.ReplicaCatalog
}

// Fingerprint renders every catalog field multi-site planning over the given
// sites can read — per site its slots, speed, staging bandwidth and software
// sharing, per transformation and site whether it resolves, is installed and
// what its install weighs, and which logical files have a replica — as one
// canonical string. Catalogs with equal fingerprints give equal Resolve
// results for any workflow, so the string can key a cache where the
// catalogs' pointers cannot: every scenario compile builds fresh ones.
func (c Catalogs) Fingerprint(sites []string) string {
	// A fixed-size start keeps the buffer on the stack for the usual handful
	// of sites: a document with one cell computes this once per cell.
	b := make([]byte, 0, 1024)
	for _, name := range sites {
		b = strconv.AppendQuote(b, name)
		s, err := c.Sites.Lookup(name)
		if err != nil {
			b = append(b, '?') // Resolve reports the unknown site
			continue
		}
		b = strconv.AppendInt(append(b, ' '), int64(s.Slots), 10)
		b = strconv.AppendFloat(append(b, ' '), s.SpeedFactor, 'g', -1, 64)
		b = strconv.AppendFloat(append(b, ' '), s.StageInMBps, 'g', -1, 64)
		b = strconv.AppendBool(append(b, ' '), s.SharedSoftware)
	}
	for _, tr := range c.Transformations.Names() {
		b = strconv.AppendQuote(append(b, '\n'), tr)
		for _, site := range sites {
			t, err := c.Transformations.Lookup(tr, site)
			if err != nil {
				b = append(b, " -"...)
				continue
			}
			b = strconv.AppendBool(append(b, ' '), t.Installed)
			b = strconv.AppendInt(append(b, ' '), t.InstallBytes, 10)
		}
	}
	b = append(b, '\n')
	for _, lfn := range c.Replicas.LFNs() {
		b = strconv.AppendQuote(b, lfn)
	}
	return string(b)
}

// StageInTransformation names the synthesized data staging transformation.
const StageInTransformation = "stage_in"

// New maps the abstract workflow onto the target site.
func New(abstract *dax.Workflow, cats Catalogs, opts Options) (*Plan, error) {
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
	if opts.ClusterSize > 1 {
		work, err = clusterTasks(abstract, opts)
		if err != nil {
			return nil, err
		}
	}

	plan := &Plan{
		Graph:     dax.New(work.Name + "-" + opts.Site),
		Site:      opts.Site,
		SiteEntry: site,
		jobs:      make([]Job, 0, work.Len()+1), // +1: the stage-in job
	}

	// Resolve each job against the transformation catalog and compute
	// its planning attributes.
	for _, aj := range work.Jobs() {
		tc, err := cats.Transformations.Lookup(aj.Transformation, opts.Site)
		if err != nil {
			return nil, fmt.Errorf("planner: job %q: %w", aj.ID, err)
		}
		pj, err := jobAttributes(aj)
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
		if err := plan.Graph.AddJob(gj); err != nil {
			return nil, err
		}
		plan.jobs = append(plan.jobs, pj)
	}
	for _, aj := range work.Jobs() {
		for _, parent := range work.Parents(aj.ID) {
			if err := plan.Graph.AddDependency(parent, aj.ID); err != nil {
				return nil, err
			}
		}
	}

	if opts.AddStageIn {
		if err := addStageIn(plan, work, cats); err != nil {
			return nil, err
		}
	}

	if err := plan.finalize(); err != nil {
		return nil, err
	}
	return plan, nil
}

// jobAttributes converts an abstract job into a planned job with its
// site-independent attributes: the pegasus::runtime estimate, the folded
// task list of clustered jobs, and the declared input/output byte totals.
// The caller fills in the site-dependent fields (Site, NeedsInstall,
// InstallBytes).
func jobAttributes(aj *dax.Job) (Job, error) {
	pj := Job{
		ID:             aj.ID,
		Transformation: aj.Transformation,
		Args:           aj.Args,
		Priority:       aj.Priority,
	}
	if rt := aj.Profile("pegasus", "runtime"); rt != "" {
		v, err := strconv.ParseFloat(rt, 64)
		if err != nil || v < 0 {
			return Job{}, fmt.Errorf("planner: job %q: bad pegasus::runtime %q", aj.ID, rt)
		}
		pj.ExecSeconds = v
	}
	if nt := aj.Profile("pegasus", "clustered_tasks"); nt != "" {
		count, err := strconv.Atoi(nt)
		if err != nil || count < 1 {
			return Job{}, fmt.Errorf("planner: job %q: bad clustered_tasks %q", aj.ID, nt)
		}
		for i := 0; i < count; i++ {
			tid := aj.Profile("pegasus", fmt.Sprintf("task_%03d", i))
			if tid == "" {
				return Job{}, fmt.Errorf("planner: job %q: missing task_%03d profile", aj.ID, i)
			}
			pj.Tasks = append(pj.Tasks, tid)
		}
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

// addStageIn synthesizes a single stage_in job transferring every external
// input (a file consumed but produced by no job) to the site, and makes it
// a parent of all consumers. External inputs must have a registered
// replica.
func addStageIn(plan *Plan, work *dax.Workflow, cats Catalogs) error {
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
				return fmt.Errorf("planner: external input %q of job %q has no replica", u.LFN, j.ID)
			}
			consumers[u.LFN] = append(consumers[u.LFN], j.ID)
			if !seen[u.LFN] {
				seen[u.LFN] = true
				externals = append(externals, ext{u.LFN, u.Size})
			}
		}
	}
	if len(externals) == 0 {
		return nil
	}
	sort.Slice(externals, func(i, j int) bool { return externals[i].lfn < externals[j].lfn })

	id := "stage_in_0"
	gj := &dax.Job{ID: id, Transformation: StageInTransformation}
	var totalBytes int64
	for _, e := range externals {
		gj.Uses = append(gj.Uses, dax.Use{LFN: e.lfn, Link: dax.LinkOutput, Size: e.size})
		totalBytes += e.size
	}
	if err := plan.Graph.AddJob(gj); err != nil {
		return err
	}
	plan.jobs = append(plan.jobs, Job{
		ID:             id,
		Transformation: StageInTransformation,
		Site:           plan.Site,
		ExecSeconds:    float64(totalBytes) / (stageInMBps(plan.SiteEntry) * 1e6),
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
			if err := plan.Graph.AddDependency(id, c); err != nil {
				return err
			}
		}
	}
	return nil
}

// clusterTasks merges same-transformation jobs at the same DAG level into
// clustered jobs of at most opts.ClusterSize tasks each, returning a new
// abstract workflow. A clustered job:
//
//   - has ID "cluster_<transformation>_l<level>_<index>";
//   - sums its tasks' pegasus::runtime estimates (tasks run sequentially
//     on one slot);
//   - takes the union of its tasks' file usages and dependencies.
func clusterTasks(abstract *dax.Workflow, opts Options) (*dax.Workflow, error) {
	eligible := func(tr string) bool {
		if len(opts.ClusterTransformations) == 0 {
			return true
		}
		for _, t := range opts.ClusterTransformations {
			if t == tr {
				return true
			}
		}
		return false
	}

	levels, err := abstract.Levels()
	if err != nil {
		return nil, err
	}
	// group[jobID] = clustered ID (or its own ID when unclustered).
	group := make(map[string]string, abstract.Len())
	type bucket struct {
		id    string
		tasks []string
	}
	var buckets []bucket
	for li, level := range levels {
		byTr := make(map[string][]string)
		var trOrder []string
		for _, id := range level {
			tr := abstract.Job(id).Transformation
			if !eligible(tr) || opts.ClusterSize <= 1 {
				group[id] = id
				continue
			}
			if _, ok := byTr[tr]; !ok {
				trOrder = append(trOrder, tr)
			}
			byTr[tr] = append(byTr[tr], id)
		}
		for _, tr := range trOrder {
			ids := byTr[tr]
			if len(ids) == 1 {
				group[ids[0]] = ids[0]
				continue
			}
			for i := 0; i < len(ids); i += opts.ClusterSize {
				end := i + opts.ClusterSize
				if end > len(ids) {
					end = len(ids)
				}
				chunk := ids[i:end]
				if len(chunk) == 1 {
					group[chunk[0]] = chunk[0]
					continue
				}
				cid := fmt.Sprintf("cluster_%s_l%d_%d", tr, li, i/opts.ClusterSize)
				for _, id := range chunk {
					group[id] = cid
				}
				buckets = append(buckets, bucket{id: cid, tasks: chunk})
			}
		}
	}

	clustered := make(map[string]bucket)
	for _, b := range buckets {
		clustered[b.id] = b
	}

	out := dax.New(abstract.Name)
	emitted := make(map[string]bool)
	for _, aj := range abstract.Jobs() {
		gid := group[aj.ID]
		if emitted[gid] {
			continue
		}
		emitted[gid] = true
		if gid == aj.ID {
			cp := *aj
			if err := out.AddJob(&cp); err != nil {
				return nil, err
			}
			continue
		}
		b := clustered[gid]
		nj := &dax.Job{ID: gid, Transformation: aj.Transformation}
		var runtime float64
		for _, tid := range b.tasks {
			task := abstract.Job(tid)
			nj.Uses = append(nj.Uses, task.Uses...)
			if rt := task.Profile("pegasus", "runtime"); rt != "" {
				v, err := strconv.ParseFloat(rt, 64)
				if err != nil {
					return nil, fmt.Errorf("planner: task %q: bad runtime %q", tid, rt)
				}
				runtime += v
			}
			if task.Priority > nj.Priority {
				nj.Priority = task.Priority
			}
		}
		if runtime > 0 {
			nj.SetProfile("pegasus", "runtime", strconv.FormatFloat(runtime, 'f', -1, 64))
		}
		nj.SetProfile("pegasus", "clustered_tasks", strconv.Itoa(len(b.tasks)))
		if err := out.AddJob(nj); err != nil {
			return nil, err
		}
	}
	// Rewire dependencies through the grouping map, skipping intra-group
	// edges.
	for _, aj := range abstract.Jobs() {
		for _, p := range abstract.Parents(aj.ID) {
			gp, gc := group[p], group[aj.ID]
			if gp == gc {
				continue
			}
			if err := out.AddDependency(gp, gc); err != nil {
				return nil, err
			}
		}
	}
	// Stash task membership in profiles so New can recover it without a
	// side channel between the two passes.
	for _, b := range buckets {
		j := out.Job(b.id)
		for i, tid := range b.tasks {
			j.SetProfile("pegasus", fmt.Sprintf("task_%03d", i), tid)
		}
	}
	return out, nil
}
