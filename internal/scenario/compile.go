package scenario

import (
	"fmt"

	"pegflow/internal/sim/platform"
	"pegflow/internal/workflow"
)

// Cell is one point of the expanded scenario grid: a site set, a chunk
// count, a seed and one row of the policy matrix.
type Cell struct {
	// Index is the cell's position in deterministic grid order.
	Index int
	// SiteSet lists the site names this cell plans across.
	SiteSet []string
	// N is the cluster-chunk count.
	N int
	// Seed drives workload permutation and every platform RNG.
	Seed uint64
	// Policy is the site-selection policy ("" for single-site cells).
	Policy string
	// Cluster is the clustering configuration.
	Cluster ClusterSpec
	// Failover enables cross-site retry.
	Failover bool
}

// Compiled is a validated scenario expanded into its cell grid, with the
// world of its declared sites and the workload fingerprint resolved once.
type Compiled struct {
	// Doc is the source document (defaults applied).
	Doc *Doc
	// Fingerprint is the document's SHA-256 hex digest.
	Fingerprint string
	// Cells is the grid in deterministic order.
	Cells []Cell

	world   *workflow.World
	params  workflow.WorkloadParams
	retries int
}

// Compile validates the document (it accepts hand-built Docs, not just
// Parse output), applies defaults, builds the world of its sites and expands
// the grid.
func Compile(d *Doc) (*Compiled, error) {
	if errs := d.validate(d.Name, nil); len(errs) > 0 {
		return nil, errs[0]
	}
	d.applyDefaults()

	c := &Compiled{
		Doc:     d,
		params:  d.params(),
		retries: *d.Retries,
	}
	sites := make([]workflow.Site, len(d.Sites))
	for i := range d.Sites {
		sites[i] = d.Sites[i].site()
	}
	var err error
	if c.world, err = workflow.NewWorld(sites); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}

	for _, set := range d.SiteSets {
		for _, n := range d.Workload.N {
			for _, seed := range d.Workload.Seeds {
				for pi, pol := range d.Policies.Site {
					if len(set) == 1 {
						// Site selection is trivial on a one-site set:
						// collapse the policy axis to one "" cell instead
						// of emitting an identical cell per policy.
						if pi > 0 {
							continue
						}
						pol = ""
					}
					for _, cl := range d.Policies.Cluster {
						for _, fo := range d.Policies.Failover {
							c.Cells = append(c.Cells, Cell{
								Index:    len(c.Cells),
								SiteSet:  set,
								N:        n,
								Seed:     seed,
								Policy:   pol,
								Cluster:  cl,
								Failover: fo,
							})
						}
					}
				}
			}
		}
	}
	c.Fingerprint = d.fingerprint()
	return c, nil
}

// site resolves the spec to the site it declares: the preset's row of
// workflow's table, or a default site for an inline definition, with the
// document's overrides applied.
func (s *SiteSpec) site() workflow.Site {
	site := workflow.DefaultSite(platform.Config{})
	if s.Preset != "" {
		// validate refused the document if the preset is unknown.
		site, _ = workflow.Preset(s.Preset)
	}
	cfg := &site.Platform
	cfg.Name = s.Name
	if s.Slots != nil {
		cfg.Slots = *s.Slots
	}
	if s.InitialSlots != nil {
		cfg.InitialSlots = *s.InitialSlots
	}
	if s.SetupMBps != nil {
		cfg.SetupBytesPerSec = *s.SetupMBps * 1e6
	}
	for _, o := range [...]struct{ field, override *float64 }{
		{&cfg.SpeedFactor, s.SpeedFactor}, {&cfg.SpeedJitter, s.SpeedJitter},
		{&cfg.SubmitInterval, s.SubmitInterval},
		{&cfg.DispatchMean, s.DispatchMean}, {&cfg.DispatchCV, s.DispatchCV},
		{&cfg.SetupMean, s.SetupMean}, {&cfg.SetupCV, s.SetupCV},
		{&cfg.EvictionRate, s.EvictionRate}, {&cfg.SlotRampInterval, s.SlotRampSeconds},
		{&site.StageInMBps, s.StageInMBps},
	} {
		if o.override != nil {
			*o.field = *o.override
		}
	}
	if s.Preinstalled != nil {
		site.Preinstalled = *s.Preinstalled
	}
	if s.InstallMB != nil {
		// A flat payload, the same for every transformation.
		site.InstallBytes, site.CAP3Bytes = int64(*s.InstallMB*(1<<20)), 0
	}
	return site
}
