package workflow

import (
	"fmt"
	"strings"

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
// (Catalogs) and the seeded platform model a run executes on (Config) are
// both derived from it, by every front end.
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

// Catalogs builds the catalogs of a world of simulated sites: a site entry
// each, every transformation registered at every site — installed, or as a
// tarball carrying the site's install payload — and replicas of the two
// external inputs, so that multi-site plans can synthesize stage-in jobs.
func Catalogs(sites []Site) (planner.Catalogs, error) {
	cats := planner.Catalogs{
		Sites:           catalog.NewSiteCatalog(),
		Transformations: catalog.NewTransformationCatalog(),
		Replicas:        catalog.NewReplicaCatalog(),
	}
	for i := range sites {
		s := &sites[i]
		if err := s.Platform.Validate(); err != nil {
			return cats, err
		}
		if err := cats.Sites.Add(&catalog.Site{
			Name: s.Platform.Name, Arch: "x86_64", OS: "linux",
			Slots: s.Platform.Slots, SpeedFactor: s.Platform.SpeedFactor,
			Heterogeneous:  s.Platform.SpeedJitter >= 0.2,
			SharedSoftware: s.Preinstalled,
			StageInMBps:    s.StageInMBps,
		}); err != nil {
			return cats, err
		}
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

// PaperCatalogs builds the catalogs of the paper's world: the built-in
// sites at the given slot counts. The workload is not consulted.
func PaperCatalogs(_ Workload, sandhillsSlots, osgSlots int) (planner.Catalogs, error) {
	return Catalogs(PaperSites(sandhillsSlots, osgSlots))
}
