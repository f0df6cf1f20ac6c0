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
	"sort"
	"strings"

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
// plans are independent of each other.
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
		return &costPolicy{name: PolicyDataAware, includeData: true, load: map[string]float64{}}, nil
	case PolicyRuntimeAware:
		return &costPolicy{name: PolicyRuntimeAware, load: map[string]float64{}}, nil
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
	// load accumulates assigned work seconds per site.
	load map[string]float64
}

func (p *costPolicy) Name() string { return p.name }

func (p *costPolicy) Choose(job PolicyJob, cands []Candidate) int {
	best, bestCost := 0, 0.0
	for i, c := range cands {
		exec := job.ExecSeconds * c.Site.SpeedFactor
		cost := p.load[c.Site.Name]/float64(c.Site.Slots) + exec
		if p.includeData {
			cost += dataSeconds(job, c)
		}
		if i == 0 || cost < bestCost {
			best, bestCost = i, cost
		}
	}
	chosen := cands[best]
	p.load[chosen.Site.Name] += job.ExecSeconds * chosen.Site.SpeedFactor
	if p.includeData {
		p.load[chosen.Site.Name] += dataSeconds(job, chosen)
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
	// ClusterSize and ClusterTransformations configure horizontal task
	// clustering exactly as in Options.
	ClusterSize            int
	ClusterTransformations []string
}

// NewMulti maps the abstract workflow onto a set of sites, choosing an
// execution site per job via the policy. The resulting Plan has per-job
// sites in its jobs and lists the target sites in Plan.Sites; Plan.SiteEntry
// is nil for multi-site plans.
func NewMulti(abstract *dax.Workflow, cats Catalogs, opts MultiOptions) (*Plan, error) {
	if err := abstract.Validate(); err != nil {
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
	policy := opts.Policy
	if policy == nil {
		policy = &roundRobinPolicy{}
	}

	work := abstract
	if opts.ClusterSize > 1 {
		var err error
		work, err = clusterTasks(abstract, Options{
			ClusterSize:            opts.ClusterSize,
			ClusterTransformations: opts.ClusterTransformations,
		})
		if err != nil {
			return nil, err
		}
	}

	plan := &Plan{
		Graph: dax.New(work.Name + "-multi"),
		Site:  strings.Join(opts.Sites, ","),
		Sites: append([]string(nil), opts.Sites...),
		jobs:  make([]Job, 0, work.Len()+len(sites)), // +sites: the stage-in jobs
	}

	// Choose sites in topological order so load-based policies see jobs
	// roughly in execution order; the order is deterministic (Kahn's
	// algorithm with insertion-order tie-breaking).
	order, err := work.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("planner: %w", err)
	}
	for _, id := range order {
		aj := work.Job(id)
		pj, err := jobAttributes(aj)
		if err != nil {
			return nil, err
		}

		// Candidate sites: those where the transformation resolves and
		// is either preinstalled or installable (no shared stack).
		cands := siteCandidates(cats, sites, aj.Transformation)
		if len(cands) == 0 {
			return nil, fmt.Errorf(
				"planner: job %q: transformation %q resolves at none of the target sites %v",
				aj.ID, aj.Transformation, opts.Sites)
		}
		choice := policy.Choose(PolicyJob{
			ID:             pj.ID,
			Transformation: pj.Transformation,
			ExecSeconds:    pj.ExecSeconds,
			InputBytes:     pj.InputBytes,
			OutputBytes:    pj.OutputBytes,
		}, cands)
		if choice < 0 || choice >= len(cands) {
			return nil, fmt.Errorf("planner: policy %q chose candidate %d of %d for job %q",
				policy.Name(), choice, len(cands), aj.ID)
		}
		chosen := cands[choice]
		pj.Site = chosen.Site.Name
		if !chosen.Entry.Installed {
			pj.NeedsInstall = true
			pj.InstallBytes = chosen.Entry.InstallBytes
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
		if err := addStageInMulti(plan, work, cats); err != nil {
			return nil, err
		}
	}

	if err := plan.finalize(); err != nil {
		return nil, err
	}
	return plan, nil
}

// addStageInMulti synthesizes one stage-in job per site that consumes
// external inputs, transferring every external input consumed at that site
// and feeding its consumers there. External inputs must have a registered
// replica.
func addStageInMulti(plan *Plan, work *dax.Workflow, cats Catalogs) error {
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
	// The plan is not indexed yet, so sites are looked up through a table.
	siteOf := make(map[string]string, len(plan.jobs))
	for i := range plan.jobs {
		siteOf[plan.jobs[i].ID] = plan.jobs[i].Site
	}
	// Per site: the external inputs staged there and their consumers.
	externals := make(map[string][]ext)
	consumers := make(map[string][]string) // site → consumer job IDs
	seen := make(map[string]map[string]bool)
	for _, j := range work.Jobs() {
		site := siteOf[j.ID]
		for _, u := range j.Uses {
			if u.Link != dax.LinkInput || produced[u.LFN] {
				continue
			}
			if !cats.Replicas.Has(u.LFN) {
				return fmt.Errorf("planner: external input %q of job %q has no replica", u.LFN, j.ID)
			}
			consumers[site] = append(consumers[site], j.ID)
			if seen[site] == nil {
				seen[site] = make(map[string]bool)
			}
			if !seen[site][u.LFN] {
				seen[site][u.LFN] = true
				externals[site] = append(externals[site], ext{u.LFN, u.Size})
			}
		}
	}
	siteNames := make([]string, 0, len(externals))
	for s := range externals {
		siteNames = append(siteNames, s)
	}
	sort.Strings(siteNames)
	for _, site := range siteNames {
		exts := externals[site]
		sort.Slice(exts, func(i, j int) bool { return exts[i].lfn < exts[j].lfn })
		id := "stage_in_" + site
		gj := &dax.Job{ID: id, Transformation: StageInTransformation}
		var totalBytes int64
		for _, e := range exts {
			gj.Uses = append(gj.Uses, dax.Use{LFN: e.lfn, Link: dax.LinkOutput, Size: e.size})
			totalBytes += e.size
		}
		if err := plan.Graph.AddJob(gj); err != nil {
			return err
		}
		entry, err := cats.Sites.Lookup(site)
		if err != nil {
			return err
		}
		plan.jobs = append(plan.jobs, Job{
			ID:             id,
			Transformation: StageInTransformation,
			Site:           site,
			ExecSeconds:    float64(totalBytes) / (stageInMBps(entry) * 1e6),
			OutputBytes:    totalBytes,
			// Stage-in never needs installs and gets top priority so
			// transfers start immediately.
			Priority: 1 << 20,
		})
		added := make(map[string]bool)
		for _, c := range consumers[site] {
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
