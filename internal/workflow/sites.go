package workflow

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"pegflow/internal/catalog"
	"pegflow/internal/planner"
	"pegflow/internal/sim/platform"
)

// InstallBytes for the software stacks staged onto OSG nodes (paper §V.D:
// Python, Biopython and the CAP3 executable).
const (
	PythonInstallBytes    = 25 << 20
	BiopythonInstallBytes = 15 << 20
	CAP3InstallBytes      = 5 << 20
)

// Site declares one simulated execution site. The catalogs planning reads
// and the seeded platform model a run executes on are both derived from it,
// by the World it is declared in.
type Site struct {
	// Platform is the platform model, seed left zero; its Name is the
	// site's name, and its Slots and SpeedFactor are the catalog's.
	Platform platform.Config
	// StageInMBps is the catalog's data staging bandwidth, in MB/s.
	StageInMBps float64
	// Preinstalled sites maintain the software stack; on the others every
	// job starts with a download/install step (Fig. 3).
	Preinstalled bool
	// InstallBytes is what that step downloads; run_cap3 and the serial
	// baseline, which run the CAP3 binary, add CAP3Bytes.
	InstallBytes, CAP3Bytes int64
}

// DefaultSite is a site before a preset or a document says otherwise:
// software preinstalled, 100 MB/s staging, and the paper's stack to install
// should it not be.
func DefaultSite(cfg platform.Config) Site {
	return Site{
		Platform:     cfg,
		StageInMBps:  100,
		Preinstalled: true,
		InstallBytes: PythonInstallBytes + BiopythonInstallBytes,
		CAP3Bytes:    CAP3InstallBytes,
	}
}

// presets is the table of built-in sites: the paper's two platforms, and
// the cloud of its future work (§VII), whose VM images ship with the stack
// baked in. Never written after initialization.
var presets = func() [3]Site {
	sandhills := DefaultSite(platform.Sandhills(0))
	// The allocation the paper's workflow got ("the resources allocated
	// from Sandhills", §VI.A), not the whole cluster: the optimum at
	// n = 300 reflects an allocation of roughly that size.
	sandhills.Platform.Slots = 300
	sandhills.StageInMBps = 200
	osg := DefaultSite(platform.OSG(0))
	osg.StageInMBps = 40
	osg.Preinstalled = false
	cloud := DefaultSite(platform.Cloud(0))
	cloud.StageInMBps = 80
	return [3]Site{sandhills, osg, cloud}
}()

// PaperSites returns the built-in sites — sandhills, osg, cloud — with the
// Sandhills allocation and the OSG pool resized; a non-positive count keeps
// the preset's.
func PaperSites(sandhillsSlots, osgSlots int) []Site {
	sites := presets
	if sandhillsSlots > 0 {
		sites[0].Platform.Slots = sandhillsSlots
	}
	if osgSlots > 0 {
		sites[1].Platform.Slots = osgSlots
	}
	return sites[:]
}

// PresetNames lists the built-in sites' names in table order.
func PresetNames() []string {
	names := make([]string, len(presets))
	for i := range presets {
		names[i] = presets[i].Platform.Name
	}
	return names
}

// Preset returns the built-in site of that name.
func Preset(name string) (Site, error) {
	for i := range presets {
		if presets[i].Platform.Name == name {
			return presets[i], nil
		}
	}
	return Site{}, fmt.Errorf("unknown site %q (have %s)", name, strings.Join(PresetNames(), ", "))
}

// PresetSites resolves a list of names to built-in sites.
func PresetSites(names []string) ([]Site, error) {
	sites := make([]Site, len(names))
	for i, name := range names {
		var err error
		if sites[i], err = Preset(name); err != nil {
			return nil, err
		}
	}
	return sites, nil
}

// Config returns the site's platform model seeded for one run.
func (s Site) Config(seed uint64) platform.Config {
	cfg := s.Platform
	cfg.Seed = seed
	return cfg
}

// catalogued is what every site registers: the workflow's transformations
// and the serial baseline. Never written after initialization.
var catalogued = append(Transformations(), TrSerial)

// World is a set of declared sites together with everything a run derives
// from the declarations: the catalogs planning reads, the key the plan cache
// knows those catalogs by over a site list, and the platform models seeded
// for one run. Every front end builds one and hands it to the run path whole,
// so what the planner is told about a site, what its plans are cached under
// and what the simulator runs cannot drift apart. Safe for concurrent use;
// the sites must not be written after NewWorld.
//
// The catalogs are deferred like Key: NewWorld checks the declarations and
// builds nothing, and the first Catalogs or Key call builds them. A request
// answered from the result cache builds its world and simulates nothing, so
// it must not pay for catalogs nobody reads.
type World struct {
	sites    []Site
	catsOnce sync.Once
	cats     planner.Catalogs
	keyMemo
}

// keyMemo is a World's memo of Key by ordered site list.
type keyMemo struct {
	mu   sync.Mutex
	keys []worldKey
}

// worldKey is one memoized Key: the ordered site list and its fingerprint.
type worldKey struct {
	names []string
	key   string
}

// get returns the key memoized for names, calling build on first use.
// build runs under the lock, so concurrent first callers build it once.
func (m *keyMemo) get(names []string, build func() string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.keys {
		if slices.Equal(m.keys[i].names, names) {
			return m.keys[i].key
		}
	}
	key := build()
	m.keys = append(m.keys, worldKey{slices.Clone(names), key})
	return key
}

// NewWorld checks the declarations — every check building their catalogs
// makes — and builds nothing.
func NewWorld(sites []Site) (*World, error) {
	if err := checkSites(sites); err != nil {
		return nil, err
	}
	return &World{sites: sites}, nil
}

// Catalogs returns the catalogs built from the declared sites, building
// them on the first call; read-only.
func (w *World) Catalogs() planner.Catalogs {
	w.catsOnce.Do(func() { w.cats = buildCatalogs(w.sites) })
	return w.cats
}

// Key returns Catalogs().Fingerprint(names), which plan caches key resolved
// masters on. It is computed by the first caller per site list and never by
// NewWorld, for the reason the catalogs are deferred.
func (w *World) Key(names []string) string {
	cats := w.Catalogs()
	return w.keyMemo.get(names, func() string { return cats.Fingerprint(names) })
}

// Configs returns the platform models of the named sites, in that order,
// seeded for one run.
func (w *World) Configs(names []string, seed uint64) ([]platform.Config, error) {
	cfgs := make([]platform.Config, len(names))
	for i, name := range names {
		j := slices.IndexFunc(w.sites, func(s Site) bool { return s.Platform.Name == name })
		if j < 0 {
			return nil, fmt.Errorf("workflow: site %q is not declared in this world", name)
		}
		cfgs[i] = w.sites[j].Config(seed)
	}
	return cfgs, nil
}

// catalogs builds the catalogs of a world of simulated sites: a site entry
// each, every transformation registered at every site — installed, or as a
// tarball carrying the site's install payload — and replicas of the two
// external inputs, so that multi-site plans can synthesize stage-in jobs.
func catalogs(sites []Site) (planner.Catalogs, error) {
	if err := checkSites(sites); err != nil {
		return planner.Catalogs{}, err
	}
	return buildCatalogs(sites), nil
}

// checkSites makes, in site order, every check building the catalogs would:
// a valid platform model, and a name no earlier site has. Every other entry
// a catalog refuses is derived from those, so once they pass, building
// cannot fail.
func checkSites(sites []Site) error {
	for i := range sites {
		if err := sites[i].Platform.Validate(); err != nil {
			return err
		}
		name := sites[i].Platform.Name
		if slices.ContainsFunc(sites[:i], func(s Site) bool { return s.Platform.Name == name }) {
			// Worded as the site catalog words it, so what a front end
			// reports for a repeated site is unchanged.
			return fmt.Errorf("catalog: duplicate site %q", name)
		}
	}
	return nil
}

// buildCatalogs builds the catalogs of sites that passed checkSites.
func buildCatalogs(sites []Site) planner.Catalogs {
	cats := planner.Catalogs{
		Sites:           catalog.NewSiteCatalog(),
		Transformations: catalog.NewTransformationCatalog(),
		Replicas:        catalog.NewReplicaCatalog(),
	}
	must := func(err error) {
		if err != nil {
			panic(fmt.Sprintf("workflow: catalogs of checked sites: %v", err))
		}
	}
	for i := range sites {
		s := &sites[i]
		must(cats.Sites.Add(&catalog.Site{
			Name: s.Platform.Name, Arch: "x86_64", OS: "linux",
			Slots: s.Platform.Slots, SpeedFactor: s.Platform.SpeedFactor,
			Heterogeneous:  s.Platform.SpeedJitter >= 0.2,
			SharedSoftware: s.Preinstalled,
			StageInMBps:    s.StageInMBps,
		}))
		for _, name := range catalogued {
			tr := &catalog.Transformation{Name: name, Site: s.Platform.Name}
			if s.Preinstalled {
				tr.PFN = "/opt/pegflow/" + name
				tr.Installed = true
			} else {
				tr.PFN = name + ".tar.gz"
				tr.InstallBytes = s.InstallBytes
				if name == TrRunCAP3 || name == TrSerial {
					tr.InstallBytes += s.CAP3Bytes
				}
			}
			must(cats.Transformations.Add(tr))
		}
	}
	for _, lfn := range []string{"transcripts.fasta", "alignments.out"} {
		must(cats.Replicas.Add(lfn, catalog.Replica{Site: "local", PFN: "/work/data/" + lfn}))
	}
	return cats
}

// PaperCatalogs builds the catalogs of the paper's world: the built-in
// sites at the given slot counts. The workload is not consulted.
func PaperCatalogs(_ Workload, sandhillsSlots, osgSlots int) (planner.Catalogs, error) {
	return catalogs(PaperSites(sandhillsSlots, osgSlots))
}
