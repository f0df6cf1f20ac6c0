// Cross-site failover: retry-elsewhere rescheduling for multi-site plans.
// DAGMan's default retry resubmits a failed job to the same site; on an
// opportunistic grid that often means queueing behind the same heavy-tailed
// dispatch latency — or landing back in the same preemption storm — that
// just killed the attempt. Failover re-resolves the job onto a sibling site
// of the plan's site set, reusing the planner's per-site transformation
// resolution so installs are re-injected exactly where the new site needs
// them.

package planner

import (
	"fmt"

	"pegflow/internal/catalog"
)

// Failover re-targets failed job attempts to sibling sites. Its Resite
// method matches engine.RetryPolicy; wire it via engine.Options.Retry (or
// ensemble.PlanOptions.Failover). A Failover instance carries per-run
// adaptive state and must not be shared between concurrent engine runs.
type Failover struct {
	cats  Catalogs
	sites []*catalog.Site
	// failures counts failed or evicted attempts observed per site. The
	// policy is adaptive: it prefers the sibling with the fewest observed
	// failures, so a site that keeps evicting work drains toward its
	// healthier peers instead of round-robining back in.
	failures map[string]int
	// byTransformation holds the sites each transformation seen so far
	// resolves at: the catalogs do not change under a run, so a retry costs
	// a lookup, not a resolution.
	byTransformation map[string][]Candidate
}

// NewFailover builds a failover policy over the given site set — normally
// the Sites of the multi-site plan being executed.
func NewFailover(cats Catalogs, sites []string) (*Failover, error) {
	if len(sites) == 0 {
		return nil, fmt.Errorf("planner: failover with no sites")
	}
	seen := make(map[string]bool, len(sites))
	resolved := make([]*catalog.Site, 0, len(sites))
	for _, name := range sites {
		if seen[name] {
			return nil, fmt.Errorf("planner: duplicate failover site %q", name)
		}
		seen[name] = true
		s, err := cats.Sites.Lookup(name)
		if err != nil {
			return nil, fmt.Errorf("planner: %w", err)
		}
		resolved = append(resolved, s)
	}
	return &Failover{
		cats: cats, sites: resolved,
		failures:         make(map[string]int),
		byTransformation: make(map[string][]Candidate),
	}, nil
}

// Resite returns a copy of the job re-resolved onto the least-failing
// sibling site, or nil when no other site resolves the transformation
// (the engine then retries in place). It matches engine.RetryPolicy.
func (f *Failover) Resite(job *Job, attempt int, lastSite string, evicted bool) *Job {
	f.failures[lastSite]++
	cands, ok := f.byTransformation[job.Transformation]
	if !ok {
		cands = siteCandidates(f.cats, f.sites, job.Transformation)
		f.byTransformation[job.Transformation] = cands
	}
	best := -1
	for i, c := range cands {
		if c.Site.Name == lastSite {
			continue
		}
		if best < 0 || f.failures[c.Site.Name] < f.failures[cands[best].Site.Name] {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	chosen := cands[best]
	nj := *job
	nj.Site = chosen.Site.Name
	nj.NeedsInstall = !chosen.Entry.Installed
	nj.InstallBytes = 0
	if nj.NeedsInstall {
		nj.InstallBytes = chosen.Entry.InstallBytes
	}
	return &nj
}
