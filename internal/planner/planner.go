package planner

import (
	"fmt"
	"strconv"
	"strings"

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
	// Members lists the payload tasks of a composite job built by the
	// Cluster pass, in on-node execution order, with their per-task runtime
	// estimates. Executors that understand Members run the payloads
	// sequentially on one slot — one dispatch and one software install
	// amortized over all of them — and emit one kickstart record per
	// member. Empty for ordinary jobs.
	Members []Member
}

// Member is one payload task folded into a composite (clustered) job.
type Member struct {
	// TaskID is the folded executable job's ID.
	TaskID string
	// ExecSeconds is the member's reference-speed runtime estimate.
	ExecSeconds float64
}

// Plan is an executable workflow bound to its sites: a topological Index and
// a slab of planned jobs in index order — nothing else holds its topology.
// The shape (Index, Sites, origin) is immutable once the plan is built and
// shared by every Clone; only the job slab is per plan, and this package
// exports nothing that writes it. Nothing outside this package may write a
// Job field through a pointer it was handed (clonegate enforces it).
type Plan struct {
	// Site is the execution site name; for a plan over several sites, the
	// comma-joined site list. Per-job sites live in the jobs.
	Site string
	// Sites lists the target sites in the order they were planned over
	// (one entry for New). It is nil for assembled plans.
	Sites []string

	// origin is what Graph shows beyond index and slab. A clustered plan
	// shares its input plan's: Cluster renames no job it keeps.
	origin *origin
	// clustered counts the Cluster passes behind the plan; Graph's name
	// carries one "-clustered" for each.
	clustered int
	// index is the immutable dense-integer topology (see Indexed), built
	// at plan construction.
	index *Index
	// jobs holds the planned jobs by value, jobs[i] being the job at
	// index.Order[i].
	jobs []Job
}

// origin is the part of a plan's dax view that neither index nor slab holds:
// the workflow's name and, per job, the file usages and the priority the
// executable graph shows. It is immutable and shared — by the clones of a
// plan and by the plans clustered from it.
type origin struct {
	name string
	// work is the abstract workflow the plan was resolved from, whose jobs
	// the executable jobs of the same ID mirror. Nil for an assembled plan.
	work *dax.Workflow
	// extra holds the jobs work does not: the synthesized stage-in jobs, or
	// every job of the graph Assemble was handed.
	extra map[string]*dax.Job
}

// job returns the job the view's job of that ID mirrors; nil for a composite,
// which mirrors its members.
func (o *origin) job(id string) *dax.Job {
	if j := o.extra[id]; j != nil {
		return j
	}
	if o.work == nil {
		return nil
	}
	return o.work.Job(id)
}

// Assemble wraps a hand-built executable graph and its planned jobs — one
// per graph job, in any order — as a single-site plan, for callers that
// bypass catalog resolution. It takes ownership of jobs; of the graph it
// keeps the jobs, whose edges it has copied into the plan's index, so a
// cyclic graph is refused here and a later edit of the graph reaches no run.
func Assemble(graph *dax.Workflow, site string, jobs []Job) (*Plan, error) {
	gjobs := graph.Jobs()
	e := &edgeList{
		ids:      make([]string, len(gjobs)),
		kids:     make([]int32, 0, graph.Edges()),
		end:      make([]int32, len(gjobs)),
		indegree: make([]int32, len(gjobs)),
	}
	number := make(map[string]int32, len(gjobs))
	extra := make(map[string]*dax.Job, len(gjobs))
	for o, gj := range gjobs {
		e.ids[o], number[gj.ID], extra[gj.ID] = gj.ID, int32(o), gj
	}
	for o, id := range e.ids {
		for _, c := range graph.Children(id) {
			e.kids = append(e.kids, number[c])
			e.indegree[number[c]]++
		}
		e.end[o] = int32(len(e.kids))
	}
	idx, err := buildIndex(e)
	if err != nil {
		return nil, fmt.Errorf("planner: executable workflow broken: %w", err)
	}
	if err := alignJobs(jobs, idx); err != nil {
		return nil, err
	}
	return &Plan{Site: site, origin: &origin{name: graph.Name, extra: extra}, index: idx, jobs: jobs}, nil
}

// Graph returns the executable jobs and their dependencies as a workflow: a
// view built from the index on every call and private to the caller, so
// Graph is for printouts, rescue workflows and tests — nothing on a run's
// path needs it (Len, JobAt, Indexed). Its jobs are structural only (ID,
// transformation, priority, file usages — a composite's are its members',
// concatenated); per-job planning attributes live in the planned jobs (Job,
// JobAt, Jobs). The Uses slices alias the abstract workflow's backing arrays,
// clipped so that an append copies; their elements are not the caller's to
// write.
func (p *Plan) Graph() *dax.Workflow {
	idx, o := p.index, p.origin
	g := dax.New(p.Name())
	for _, pos := range idx.insertion {
		j := &p.jobs[pos]
		gj := &dax.Job{ID: idx.Order[pos], Transformation: j.Transformation, Priority: j.Priority}
		if src := o.job(gj.ID); src != nil {
			gj.Transformation, gj.Priority = src.Transformation, src.Priority
			gj.Uses = src.Uses[:len(src.Uses):len(src.Uses)]
		} else {
			for _, m := range j.Members {
				gj.Uses = append(gj.Uses, o.job(m.TaskID).Uses...)
			}
		}
		if err := g.AddJob(gj); err != nil {
			panic(err) // the index holds every ID once
		}
	}
	for pos, kids := range idx.Children {
		for _, c := range kids {
			if err := g.AddDependency(idx.Order[pos], idx.Order[c]); err != nil {
				panic(err) // both ends are jobs of the index, and distinct
			}
		}
	}
	return g
}

// Name returns the name Graph's view carries — the workflow's, with one
// "-clustered" per Cluster pass — without building the view: at most one
// allocation at any n.
func (p *Plan) Name() string {
	if p.clustered == 0 {
		return p.origin.name
	}
	var b strings.Builder
	b.Grow(len(p.origin.name) + p.clustered*len("-clustered"))
	b.WriteString(p.origin.name)
	for range p.clustered {
		b.WriteString("-clustered")
	}
	return b.String()
}

// Len returns the number of executable jobs.
func (p *Plan) Len() int { return len(p.jobs) }

// Jobs returns the plan's jobs in insertion order.
func (p *Plan) Jobs() []*Job {
	out := make([]*Job, 0, len(p.jobs))
	for _, pos := range p.index.insertion {
		out = append(out, &p.jobs[pos])
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

// New maps the abstract workflow onto the target site: NewMulti over the
// one-site list, on which no job has a choice of site and no policy is
// consulted.
func New(abstract *dax.Workflow, cats Catalogs, opts Options) (*Plan, error) {
	if opts.Site == "" {
		return nil, fmt.Errorf("planner: no target site given")
	}
	return NewMulti(abstract, cats, MultiOptions{Sites: []string{opts.Site}, AddStageIn: opts.AddStageIn})
}

// jobAttributes converts an abstract job into a planned job with its
// site-independent attributes: the pegasus::runtime estimate and the
// declared input/output byte totals. The caller fills in the site-dependent
// fields (Site, NeedsInstall, InstallBytes).
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
	for _, u := range aj.Uses {
		if u.Link == dax.LinkInput {
			pj.InputBytes += u.Size
		} else {
			pj.OutputBytes += u.Size
		}
	}
	return pj, nil
}
