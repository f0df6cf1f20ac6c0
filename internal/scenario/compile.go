package scenario

import (
	"fmt"
	"strings"
	"sync"

	"pegflow/internal/catalog"
	"pegflow/internal/planner"
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
// shared catalogs and workload fingerprint resolved once.
type Compiled struct {
	// Doc is the source document (defaults applied).
	Doc *Doc
	// Fingerprint is the document's SHA-256 hex digest.
	Fingerprint string
	// Cells is the grid in deterministic order.
	Cells []Cell

	cats    planner.Catalogs
	params  workflow.WorkloadParams
	byName  map[string]*SiteSpec
	retries int

	keyMu sync.Mutex
	//pegflow:guarded keyMu
	catalogKeys map[string]string // joined site set → cats.Fingerprint(set)
}

// Compile validates the document (it accepts hand-built Docs, not just
// Parse output), applies defaults, builds the shared catalogs and expands
// the grid.
func Compile(d *Doc) (*Compiled, error) {
	if errs := d.validate(d.Name, nil); len(errs) > 0 {
		return nil, errs[0]
	}
	d.applyDefaults()

	c := &Compiled{
		Doc:     d,
		params:  d.params(),
		byName:  make(map[string]*SiteSpec, len(d.Sites)),
		retries: *d.Retries,
	}
	for i := range d.Sites {
		c.byName[d.Sites[i].Name] = &d.Sites[i]
	}
	cats, err := c.buildCatalogs()
	if err != nil {
		return nil, err
	}
	c.cats = cats

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
	c.Fingerprint = d.Fingerprint()
	return c, nil
}

// presetPlatform returns the built-in platform model for a preset, with
// the slot defaults the paper experiments use (Sandhills allocation 300,
// OSG pool 600, cloud 512).
func presetPlatform(preset string, seed uint64) (platform.Config, bool) {
	switch preset {
	case "sandhills":
		cfg := platform.Sandhills(seed)
		cfg.Slots = 300
		return cfg, true
	case "osg":
		return platform.OSG(seed), true
	case "cloud":
		return platform.Cloud(seed), true
	}
	return platform.Config{}, false
}

// siteConfig materializes the simulated platform for a site spec, seeded
// for one cell.
func (c *Compiled) siteConfig(s *SiteSpec, seed uint64) platform.Config {
	cfg, ok := presetPlatform(s.Preset, seed)
	if !ok {
		cfg = platform.Config{Seed: seed}
	}
	cfg.Name = s.Name
	if s.Slots != nil {
		cfg.Slots = *s.Slots
	}
	if s.SpeedFactor != nil {
		cfg.SpeedFactor = *s.SpeedFactor
	}
	if s.SpeedJitter != nil {
		cfg.SpeedJitter = *s.SpeedJitter
	}
	if s.SubmitInterval != nil {
		cfg.SubmitInterval = *s.SubmitInterval
	}
	if s.DispatchMean != nil {
		cfg.DispatchMean = *s.DispatchMean
	}
	if s.DispatchCV != nil {
		cfg.DispatchCV = *s.DispatchCV
	}
	if s.SetupMean != nil {
		cfg.SetupMean = *s.SetupMean
	}
	if s.SetupCV != nil {
		cfg.SetupCV = *s.SetupCV
	}
	if s.SetupMBps != nil {
		cfg.SetupBytesPerSec = *s.SetupMBps * 1e6
	}
	if s.EvictionRate != nil {
		cfg.EvictionRate = *s.EvictionRate
	}
	if s.InitialSlots != nil {
		cfg.InitialSlots = *s.InitialSlots
	}
	if s.SlotRampSeconds != nil {
		cfg.SlotRampInterval = *s.SlotRampSeconds
	}
	return cfg
}

// preinstalled reports whether the site's software stack needs no
// download/install step. Presets keep the paper's semantics (only OSG
// downloads); inline sites default to preinstalled.
func (s *SiteSpec) preinstalled() bool {
	if s.Preinstalled != nil {
		return *s.Preinstalled
	}
	return s.Preset != "osg"
}

// stageInMBps returns the catalog stage-in bandwidth for the site.
func (s *SiteSpec) stageInMBps() float64 {
	if s.StageInMBps != nil {
		return *s.StageInMBps
	}
	switch s.Preset {
	case "sandhills":
		return 200
	case "osg":
		return 40
	case "cloud":
		return 80
	}
	return 100
}

// installBytes returns the per-job software payload for a transformation
// on a site without preinstalled software.
func (s *SiteSpec) installBytes(transformation string) int64 {
	if s.InstallMB != nil {
		return int64(*s.InstallMB * (1 << 20))
	}
	// The paper's OSG payload: Python + Biopython, plus the CAP3 binary
	// for the assembly steps.
	b := int64(workflow.PythonInstallBytes + workflow.BiopythonInstallBytes)
	if transformation == workflow.TrRunCAP3 || transformation == workflow.TrSerial {
		b += workflow.CAP3InstallBytes
	}
	return b
}

// buildCatalogs generalizes workflow.PaperCatalogs to the scenario's site
// pool: one site-catalog entry per declared site, transformation entries
// reflecting each site's install semantics, and replicas for the two
// external inputs so multi-site plans can synthesize stage-in jobs.
func (c *Compiled) buildCatalogs() (planner.Catalogs, error) {
	cats := planner.Catalogs{
		Sites:           catalog.NewSiteCatalog(),
		Transformations: catalog.NewTransformationCatalog(),
		Replicas:        catalog.NewReplicaCatalog(),
	}
	for i := range c.Doc.Sites {
		s := &c.Doc.Sites[i]
		cfg := c.siteConfig(s, 0)
		if err := cfg.Validate(); err != nil {
			return cats, fmt.Errorf("scenario: site %q: %w", s.Name, err)
		}
		shared := s.preinstalled()
		if err := cats.Sites.Add(&catalog.Site{
			Name: s.Name, Arch: "x86_64", OS: "linux",
			Slots: cfg.Slots, SpeedFactor: cfg.SpeedFactor,
			Heterogeneous:  cfg.SpeedJitter >= 0.2,
			SharedSoftware: shared,
			StageInMBps:    s.stageInMBps(),
		}); err != nil {
			return cats, err
		}
		for _, name := range append(workflow.Transformations(), workflow.TrSerial) {
			tr := &catalog.Transformation{Name: name, Site: s.Name}
			if shared {
				tr.PFN = "/opt/pegflow/" + name
				tr.Installed = true
			} else {
				tr.PFN = name + ".tar.gz"
				tr.InstallBytes = s.installBytes(name)
			}
			if err := cats.Transformations.Add(tr); err != nil {
				return cats, err
			}
		}
	}
	for _, lfn := range []string{"transcripts.fasta", "alignments.out"} {
		if err := cats.Replicas.Add(lfn, catalog.Replica{Site: "local", PFN: "/work/data/" + lfn}); err != nil {
			return cats, err
		}
	}
	return cats, nil
}

// stageIn reports whether the cell's plans carry the synthesized stage-in
// jobs. They do, except for one workflow on one untouched built-in preset
// (a slots override aside, which cloud may not have either) with no
// failover, fault or backoff in the document: those cells used to run on a separate
// single-site pipeline whose plans had no stage-in job, and the distinction
// is the one observable thing that pipeline left behind. Changing this
// truth table changes the checked-in goldens.
func (c *Compiled) stageIn(cell Cell) bool {
	if c.Doc.Ensemble != nil || len(cell.SiteSet) != 1 || cell.Failover ||
		len(c.Doc.Faults) > 0 || c.Doc.RetryBackoff != nil {
		return true
	}
	s := c.byName[cell.SiteSet[0]]
	if s.Preset == "" || s.Name != s.Preset {
		return true
	}
	if s.Preset == "cloud" && s.Slots != nil {
		return true
	}
	// Any override beyond slots leaves the preset's calibration.
	return s.SpeedFactor != nil || s.SpeedJitter != nil || s.SubmitInterval != nil ||
		s.DispatchMean != nil || s.DispatchCV != nil || s.SetupMean != nil ||
		s.SetupCV != nil || s.SetupMBps != nil || s.EvictionRate != nil ||
		s.InitialSlots != nil || s.SlotRampSeconds != nil ||
		s.Preinstalled != nil || s.InstallMB != nil || s.StageInMBps != nil
}

// catalogKey returns what core keys plan masters on for the site set: the
// fingerprint of the catalog fields planning reads over those sites. The
// first simulated cell of a set computes it and the rest of the document's
// cells reuse it; Compile does not, because a request served from the
// result cache compiles and never simulates.
func (c *Compiled) catalogKey(set []string) string {
	// Site names hold no comma (validName), and a one-site set joins to
	// its own name without allocating.
	id := strings.Join(set, ",")
	c.keyMu.Lock()
	defer c.keyMu.Unlock()
	key, ok := c.catalogKeys[id]
	if !ok {
		if c.catalogKeys == nil {
			c.catalogKeys = make(map[string]string, len(c.Doc.SiteSets))
		}
		key = c.cats.Fingerprint(set)
		c.catalogKeys[id] = key
	}
	return key
}
