// Multi-site planning: map an abstract workflow onto a *set* of execution
// sites under a pluggable site-selection policy — the paper's central
// scenario of one WMS driving both a campus cluster and an opportunistic
// grid at once (§III, §VI), generalized so any number of heterogeneous
// backends can share one executable plan.
//
// Every job is resolved against the transformation catalog at its chosen
// site, and install steps are injected only where the site lacks a shared
// software stack (the OSG case); stage-in jobs are synthesized per site, so
// data transfers are paid once per site rather than once per workflow.

package planner

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"pegflow/internal/catalog"
	"pegflow/internal/dax"
)

// PolicyJob is the job information a site-selection policy sees.
type PolicyJob struct {
	// ID is the executable job ID.
	ID string
	// Transformation is the logical executable name.
	Transformation string
	// ExecSeconds is the estimated reference-speed runtime (0 = unknown).
	ExecSeconds float64
	// InputBytes and OutputBytes total the declared file sizes.
	InputBytes, OutputBytes int64
}

// Candidate is one site at which a job's transformation resolves.
type Candidate struct {
	// Site is the site catalog entry.
	Site *catalog.Site
	// Entry is the transformation catalog entry at that site.
	Entry *catalog.Transformation
}

// SitePolicy chooses an execution site for each job during multi-site
// planning. Choose returns an index into cands (always non-empty, ordered
// as in MultiOptions.Sites). Policies may carry state (e.g. accumulated
// per-site load); a fresh policy instance is used per planning run, so
// plans are independent of each other. A workflow none of whose jobs has
// more than one candidate is placed without calling Choose at all.
type SitePolicy interface {
	// Name identifies the policy ("round-robin", "data-aware", ...).
	Name() string
	// Choose picks the candidate for the job.
	Choose(job PolicyJob, cands []Candidate) int
}

// Policy names accepted by NewPolicy.
const (
	PolicyRoundRobin   = "round-robin"
	PolicyDataAware    = "data-aware"
	PolicyRuntimeAware = "runtime-aware"
)

// PolicyNames lists the built-in site-selection policies.
func PolicyNames() []string {
	return []string{PolicyRoundRobin, PolicyDataAware, PolicyRuntimeAware}
}

// NewPolicy returns a fresh instance of a built-in policy by name.
func NewPolicy(name string) (SitePolicy, error) {
	switch name {
	case PolicyRoundRobin:
		return &roundRobinPolicy{}, nil
	case PolicyDataAware:
		return &costPolicy{name: PolicyDataAware, includeData: true}, nil
	case PolicyRuntimeAware:
		return &costPolicy{name: PolicyRuntimeAware}, nil
	default:
		return nil, fmt.Errorf("planner: unknown site policy %q (have %s)",
			name, strings.Join(PolicyNames(), ", "))
	}
}

// roundRobinPolicy cycles through the candidate sites in order, ignoring
// job attributes — the baseline spreading strategy.
type roundRobinPolicy struct {
	next int
}

func (p *roundRobinPolicy) Name() string { return PolicyRoundRobin }

func (p *roundRobinPolicy) Choose(job PolicyJob, cands []Candidate) int {
	i := p.next % len(cands)
	p.next++
	return i
}

// costPolicy greedily minimizes the estimated completion cost of each job:
// accumulated site load (normalized by slot count) plus the job's scaled
// execution time, and — for the data-aware variant — the time to move the
// job's inputs and software stack to the site at its staging bandwidth.
type costPolicy struct {
	name        string
	includeData bool
	// load[i] accumulates the work seconds assigned to sites[i]. A plan
	// targets a handful of sites, so a scan beats a map on the per-job path.
	sites []string
	load  []float64
}

func (p *costPolicy) Name() string { return p.name }

// slot returns the site's index in load, adding it on first sight.
func (p *costPolicy) slot(site string) int {
	for i, s := range p.sites {
		if s == site {
			return i
		}
	}
	p.sites = append(p.sites, site)
	p.load = append(p.load, 0)
	return len(p.load) - 1
}

func (p *costPolicy) Choose(job PolicyJob, cands []Candidate) int {
	best, bestSlot, bestCost := 0, 0, 0.0
	for i, c := range cands {
		slot := p.slot(c.Site.Name)
		exec := job.ExecSeconds * c.Site.SpeedFactor
		cost := p.load[slot]/float64(c.Site.Slots) + exec
		if p.includeData {
			cost += dataSeconds(job, c)
		}
		if i == 0 || cost < bestCost {
			best, bestSlot, bestCost = i, slot, cost
		}
	}
	chosen := cands[best]
	p.load[bestSlot] += job.ExecSeconds * chosen.Site.SpeedFactor
	if p.includeData {
		p.load[bestSlot] += dataSeconds(job, chosen)
	}
	return best
}

// dataSeconds estimates the time to stage the job's inputs — and, where
// the transformation is not preinstalled, its software stack — to the
// candidate site.
func dataSeconds(job PolicyJob, c Candidate) float64 {
	bytes := job.InputBytes
	if !c.Entry.Installed {
		bytes += c.Entry.InstallBytes
	}
	return float64(bytes) / (stageInMBps(c.Site) * 1e6)
}

// siteCandidates returns the sites at which the transformation resolves,
// in the given site order: preinstalled entries always qualify, uninstalled
// entries only where per-job installs are allowed (no shared software
// stack). Both NewMulti's site selection and Failover's retry-elsewhere
// re-resolution go through this, so a failover lands exactly where the
// planner could have placed the job in the first place.
func siteCandidates(cats Catalogs, sites []*catalog.Site, transformation string) []Candidate {
	var cands []Candidate
	for _, s := range sites {
		tc, err := cats.Transformations.Lookup(transformation, s.Name)
		if err != nil {
			continue
		}
		if !tc.Installed && s.SharedSoftware {
			// A shared-software site refuses per-job installs.
			continue
		}
		cands = append(cands, Candidate{Site: s, Entry: tc})
	}
	return cands
}

// stageInMBps returns the site's staging bandwidth, defaulting to 100 MB/s
// when the catalog leaves it unset.
func stageInMBps(s *catalog.Site) float64 {
	if s.StageInMBps <= 0 {
		return 100
	}
	return s.StageInMBps
}

// MultiOptions configures multi-site planning.
type MultiOptions struct {
	// Sites are the target execution sites (at least one, all distinct).
	Sites []string
	// Policy selects a site per job; nil means round-robin.
	Policy SitePolicy
	// AddStageIn synthesizes one stage-in job per site holding external
	// inputs consumed there.
	AddStageIn bool
}

// NewMulti maps the abstract workflow onto a set of sites, choosing an
// execution site per job via the policy. The resulting Plan has per-job
// sites in its jobs and lists the target sites in Plan.Sites. It is Resolve
// followed by one Resolved.Plan.
func NewMulti(abstract *dax.Workflow, cats Catalogs, opts MultiOptions) (*Plan, error) {
	r, err := Resolve(abstract, cats, opts)
	if err != nil {
		return nil, err
	}
	return r.Plan(opts.Policy, nil, nil)
}

// Resolved is everything about a multi-site plan that does not depend on
// the jobs' runtime estimates or on the policy: the validated workflow in
// topological order, each job's site-independent attributes and candidate
// sites, and the external inputs a stage-in job would transfer. It is
// immutable apart from the memo of materialized shapes and safe for
// concurrent Plan calls, so one Resolved serves every plan of its workflow
// shape (the multi-site plan cache in package core keeps one per shape).
type Resolved struct {
	// Materialized, when set before the first Plan call, is called once
	// per master plan Plan builds (a memo miss).
	Materialized func()

	work *dax.Workflow
	// dense is work by job number, as validated; pos[o] is the topological
	// position of abstract job number o, the inverse of dense.Order().
	dense     dax.Dense
	pos       []int32
	siteNames []string
	sites     []*catalog.Site
	// jobs[k] is the job at topological position k with its placement
	// (Site, NeedsInstall, InstallBytes) unset; cands[k] are the sites it
	// may run at. Jobs of one transformation share one candidate slice.
	jobs  []Job
	cands [][]Candidate
	// choice records that some job has more than one candidate. Without
	// one, every placement is the same and no policy is consulted.
	choice bool
	// consumers are the jobs reading external inputs, in workflow insertion
	// order (none without AddStageIn). Where they are placed is the stage-in
	// signature: the only thing about a placement that changes the
	// topology.
	consumers []externalConsumer

	shapeMemo
}

// shapeMemo memoizes, per stage-in signature, the master plan every
// placement with that signature is cloned from. A master inserts the
// resolved jobs first and in topological order, so the job at topological
// position k sits at slab position index.insertion[k].
type shapeMemo struct {
	mu     sync.Mutex
	shapes map[string]*Plan
}

// get returns the master memoized under sig, calling build on first use.
// build runs under the lock, so concurrent first callers of a signature
// build it once; a failed build memoizes nothing.
func (m *shapeMemo) get(sig []byte, build func() (*Plan, error)) (*Plan, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if master := m.shapes[string(sig)]; master != nil {
		return master, nil
	}
	master, err := build()
	if err != nil {
		return nil, err
	}
	if m.shapes == nil {
		m.shapes = make(map[string]*Plan)
	}
	m.shapes[string(sig)] = master
	return master, nil
}

// externalConsumer is a job with inputs no job of the workflow produces.
type externalConsumer struct {
	pos    int32
	inputs []dax.Use
}

// Resolve performs the runtime-independent part of planning: validation,
// the topological order, per-job attributes, per-transformation site
// candidates and the replica check of external inputs. opts.Policy is not
// consulted; it is an argument of Plan.
func Resolve(abstract *dax.Workflow, cats Catalogs, opts MultiOptions) (*Resolved, error) {
	// Jobs are kept in topological order so load-based policies see them
	// roughly in execution order; the order is deterministic (Kahn's
	// algorithm with insertion-order tie-breaking).
	dense, err := abstract.Dense()
	if err != nil {
		return nil, fmt.Errorf("planner: invalid abstract workflow: %w", err)
	}
	if len(opts.Sites) == 0 {
		return nil, fmt.Errorf("planner: no target sites given")
	}
	seen := make(map[string]bool, len(opts.Sites))
	sites := make([]*catalog.Site, 0, len(opts.Sites))
	for _, name := range opts.Sites {
		if seen[name] {
			return nil, fmt.Errorf("planner: duplicate target site %q", name)
		}
		seen[name] = true
		s, err := cats.Sites.Lookup(name)
		if err != nil {
			return nil, fmt.Errorf("planner: %w", err)
		}
		sites = append(sites, s)
	}

	order := dense.Order()
	r := &Resolved{
		work:      abstract,
		dense:     dense,
		pos:       make([]int32, len(order)),
		siteNames: append([]string(nil), opts.Sites...),
		sites:     sites,
		jobs:      make([]Job, 0, len(order)),
		cands:     make([][]Candidate, 0, len(order)),
	}
	byTransformation := make(map[string][]Candidate)
	for k, o := range order {
		aj := dense.Job(o)
		pj, err := jobAttributes(aj)
		if err != nil {
			return nil, err
		}
		// Candidate sites: those where the transformation resolves and
		// is either preinstalled or installable (no shared stack).
		cands, ok := byTransformation[aj.Transformation]
		if !ok {
			cands = siteCandidates(cats, sites, aj.Transformation)
			byTransformation[aj.Transformation] = cands
		}
		if len(cands) == 0 {
			return nil, fmt.Errorf(
				"planner: job %q: transformation %q resolves at none of the target sites %v (not registered there, or not installed at a shared-software site)",
				aj.ID, aj.Transformation, opts.Sites)
		}
		r.jobs = append(r.jobs, pj)
		r.cands = append(r.cands, cands)
		r.choice = r.choice || len(cands) > 1
		r.pos[o] = int32(k)
	}
	if opts.AddStageIn {
		if err := r.findExternalConsumers(cats); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// findExternalConsumers records the jobs with external inputs. External
// inputs must have a registered replica.
func (r *Resolved) findExternalConsumers(cats Catalogs) error {
	produced := make(map[string]bool)
	for o := range r.pos {
		for _, u := range r.dense.Job(int32(o)).Uses {
			if u.Link == dax.LinkOutput {
				produced[u.LFN] = true
			}
		}
	}
	for o, pos := range r.pos {
		j := r.dense.Job(int32(o))
		var inputs []dax.Use
		for _, u := range j.Uses {
			if u.Link != dax.LinkInput || produced[u.LFN] {
				continue
			}
			if !cats.Replicas.Has(u.LFN) {
				return fmt.Errorf("planner: external input %q of job %q has no replica", u.LFN, j.ID)
			}
			inputs = append(inputs, u)
		}
		if len(inputs) > 0 {
			r.consumers = append(r.consumers, externalConsumer{pos: pos, inputs: inputs})
		}
	}
	return nil
}

// Position returns the topological position of the job, the index Plan's
// runtime overrides are addressed by.
func (r *Resolved) Position(id string) (int32, bool) {
	o, ok := r.dense.Number(id)
	if !ok {
		return 0, false
	}
	return r.pos[o], true
}

// Plan places every job under the policy (nil means round-robin) and returns
// the executable plan, exactly what NewMulti returns for a workflow whose
// job at topological position pos[k] carries the runtime estimate
// seconds[k]; jobs not listed keep the estimate they were resolved with. A
// workflow none of whose jobs has a choice of site is placed without
// consulting the policy.
//
// The plan is a Clone of the memoized shape for the placement's stage-in
// signature, with each job's placement and runtime written at its recorded
// slab position, so a call whose signature has been seen allocates a
// constant number of objects — the plan header and the slab — plus, where
// the policy had choices to make, one candidate index per job.
func (r *Resolved) Plan(policy SitePolicy, pos []int32, seconds []float64) (*Plan, error) {
	if len(pos) != len(seconds) {
		return nil, fmt.Errorf("planner: %d runtime overrides for %d positions", len(seconds), len(pos))
	}
	for _, p := range pos {
		if p < 0 || int(p) >= len(r.jobs) {
			return nil, fmt.Errorf("planner: runtime override for position %d of %d", p, len(r.jobs))
		}
	}
	var cand []int32 // nil: every job runs at its only candidate
	if r.choice {
		var err error
		if cand, err = r.place(policy, pos, seconds); err != nil {
			return nil, err
		}
	}
	master, err := r.shapeFor(cand)
	if err != nil {
		return nil, err
	}
	plan, slab := master.Clone(), master.index.insertion
	for k := range r.jobs {
		j := &plan.jobs[slab[k]]
		chosen := r.chosen(cand, int32(k))
		j.Site = chosen.Site.Name
		if !chosen.Entry.Installed {
			j.NeedsInstall = true
			j.InstallBytes = chosen.Entry.InstallBytes
		}
	}
	for k, p := range pos {
		plan.jobs[slab[p]].ExecSeconds = seconds[k]
	}
	return plan, nil
}

// place runs the policy over the jobs in topological order and returns the
// candidate it chose for each. Until a job's turn comes its slot holds
// which override, if any, carries its runtime estimate (index + 1), so the
// pass needs no second per-job array.
func (r *Resolved) place(policy SitePolicy, pos []int32, seconds []float64) ([]int32, error) {
	if policy == nil {
		policy = &roundRobinPolicy{}
	}
	cand := make([]int32, len(r.jobs))
	for k, p := range pos {
		cand[p] = int32(k) + 1
	}
	for k := range cand {
		j := &r.jobs[k]
		exec := j.ExecSeconds
		if o := cand[k]; o != 0 {
			exec = seconds[o-1]
		}
		cands := r.cands[k]
		choice := policy.Choose(PolicyJob{
			ID:             j.ID,
			Transformation: j.Transformation,
			ExecSeconds:    exec,
			InputBytes:     j.InputBytes,
			OutputBytes:    j.OutputBytes,
		}, cands)
		if choice < 0 || choice >= len(cands) {
			return nil, fmt.Errorf("planner: policy %q chose candidate %d of %d for job %q",
				policy.Name(), choice, len(cands), j.ID)
		}
		cand[k] = int32(choice)
	}
	return cand, nil
}

// chosen is the candidate a placement gives the job at position k; a nil
// placement is the one where nothing had a choice.
func (r *Resolved) chosen(cand []int32, k int32) Candidate {
	if cand == nil {
		return r.cands[k][0]
	}
	return r.cands[k][cand[k]]
}

// shapeFor returns the memoized master plan for the placement's stage-in
// signature, materializing it on first use.
func (r *Resolved) shapeFor(cand []int32) (*Plan, error) {
	var buf [32]byte
	sig := buf[:0]
	for _, c := range r.consumers {
		site := r.chosen(cand, c.pos).Site
		for i, s := range r.sites {
			if s == site {
				sig = append(sig, byte(i), byte(i>>8))
			}
		}
	}
	return r.shapeMemo.get(sig, func() (*Plan, error) {
		master, err := r.materialize(cand)
		if err == nil && r.Materialized != nil {
			r.Materialized()
		}
		return master, err
	})
}

// materialize builds the master plan of a placement, index and slab: the
// resolved jobs in topological order with the workflow's edges, then the
// stage-in jobs the placement's signature calls for, each feeding its
// consumers. The master's resolved jobs carry no placement of their own; Plan
// writes one into every clone.
func (r *Resolved) materialize(cand []int32) (*Plan, error) {
	staged := r.stageIn(cand)
	m := len(r.jobs) + len(staged)
	edges := r.work.Edges()
	for _, st := range staged {
		edges += len(st.consumers)
	}
	e := &edgeList{
		ids:      make([]string, 0, m),
		kids:     make([]int32, 0, edges),
		end:      make([]int32, 0, m),
		indegree: make([]int32, m),
	}
	feed := func(id string, children []int32) {
		e.ids = append(e.ids, id)
		e.kids = append(e.kids, children...)
		e.end = append(e.end, int32(len(e.kids)))
		for _, c := range children {
			e.indegree[c]++
		}
	}
	jobs := make([]Job, len(r.jobs), m)
	copy(jobs, r.jobs)
	// A resolved job's number in insertion order is its topological position
	// in the workflow, so r.pos maps an edge's ends.
	var children []int32
	for k, o := range r.dense.Order() {
		children = children[:0]
		for _, c := range r.dense.Children(o) {
			children = append(children, r.pos[c])
		}
		feed(r.jobs[k].ID, children)
	}
	suffix := "-multi"
	if len(r.siteNames) == 1 {
		suffix = "-" + r.siteNames[0]
	}
	o := &origin{name: r.work.Name + suffix, work: r.work}
	if len(staged) > 0 {
		o.extra = make(map[string]*dax.Job, len(staged))
	}
	for _, st := range staged {
		feed(st.job.ID, st.consumers)
		jobs = append(jobs, st.job)
		o.extra[st.job.ID] = st.view
	}
	idx, err := buildIndex(e)
	if err != nil {
		return nil, fmt.Errorf("planner: executable workflow broken: %w", err)
	}
	if err := alignJobs(jobs, idx); err != nil {
		return nil, err
	}
	return &Plan{Site: strings.Join(r.siteNames, ","), Sites: r.siteNames, origin: o, index: idx, jobs: jobs}, nil
}

// stagedIn is one synthesized stage-in job: the planned job, the job Graph
// shows for it (the staged files as its outputs), and its consumers'
// topological positions in sorted-ID order.
type stagedIn struct {
	job       Job
	view      *dax.Job
	consumers []int32
}

// stageIn synthesizes one stage-in job per site that consumes external
// inputs under the placement, transferring every external input consumed at
// that site and feeding its consumers there; the jobs come in site-name
// order.
func (r *Resolved) stageIn(cand []int32) []stagedIn {
	// Per site: the external inputs staged there and their consumers.
	type siteStage struct {
		entry     *catalog.Site
		seen      map[string]bool
		uses      []dax.Use
		consumers []int32
	}
	stages := make(map[string]*siteStage)
	for _, c := range r.consumers {
		entry := r.chosen(cand, c.pos).Site
		st := stages[entry.Name]
		if st == nil {
			st = &siteStage{entry: entry, seen: make(map[string]bool)}
			stages[entry.Name] = st
		}
		st.consumers = append(st.consumers, c.pos)
		for _, u := range c.inputs {
			if !st.seen[u.LFN] {
				st.seen[u.LFN] = true
				st.uses = append(st.uses, dax.Use{LFN: u.LFN, Link: dax.LinkOutput, Size: u.Size})
			}
		}
	}
	siteNames := make([]string, 0, len(stages))
	for s := range stages {
		siteNames = append(siteNames, s)
	}
	sort.Strings(siteNames)
	out := make([]stagedIn, 0, len(siteNames))
	for _, site := range siteNames {
		st := stages[site]
		sort.Slice(st.uses, func(i, j int) bool { return st.uses[i].LFN < st.uses[j].LFN })
		slices.SortFunc(st.consumers, func(a, b int32) int { return strings.Compare(r.jobs[a].ID, r.jobs[b].ID) })
		var totalBytes int64
		for _, u := range st.uses {
			totalBytes += u.Size
		}
		id := "stage_in_" + site
		out = append(out, stagedIn{
			job: Job{
				ID:             id,
				Transformation: StageInTransformation,
				Site:           site,
				ExecSeconds:    float64(totalBytes) / (stageInMBps(st.entry) * 1e6),
				OutputBytes:    totalBytes,
				// Stage-in never needs installs and gets top priority so
				// transfers start immediately.
				Priority: 1 << 20,
			},
			view:      &dax.Job{ID: id, Transformation: StageInTransformation, Uses: st.uses},
			consumers: st.consumers,
		})
	}
	return out
}
