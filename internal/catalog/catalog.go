package catalog

import (
	"fmt"
	"sort"
)

// Site describes one execution platform entry in the site catalog.
type Site struct {
	// Name identifies the site (e.g. "sandhills", "osg", "local").
	Name string
	// Arch and OS describe the platform (informational).
	Arch, OS string
	// Slots is the number of job slots the workflow can hold at once.
	Slots int
	// SpeedFactor scales job execution time relative to the reference
	// machine (1.0 = reference; <1.0 = faster nodes).
	SpeedFactor float64
	// Heterogeneous marks sites whose nodes vary in speed; the platform
	// model then draws a per-node factor around SpeedFactor.
	Heterogeneous bool
	// SharedSoftware reports whether the site maintains a shared software
	// stack (true for a campus cluster). When false, any transformation
	// not marked installed at the site needs a download/install step.
	SharedSoftware bool
	// StageInMBps is the effective data staging bandwidth in MB/s.
	StageInMBps float64
	// Profiles carries site-level tuning knobs.
	Profiles map[string]string
}

// SiteCatalog is a set of sites keyed by name.
type SiteCatalog struct {
	sites map[string]*Site
}

// NewSiteCatalog returns an empty site catalog.
func NewSiteCatalog() *SiteCatalog {
	return &SiteCatalog{sites: make(map[string]*Site)}
}

// Add inserts a site, rejecting duplicates and invalid entries.
func (c *SiteCatalog) Add(s *Site) error {
	if s.Name == "" {
		return fmt.Errorf("catalog: site with empty name")
	}
	if s.Slots <= 0 {
		return fmt.Errorf("catalog: site %q with non-positive slots %d", s.Name, s.Slots)
	}
	if s.SpeedFactor <= 0 {
		return fmt.Errorf("catalog: site %q with non-positive speed factor %v", s.Name, s.SpeedFactor)
	}
	if _, dup := c.sites[s.Name]; dup {
		return fmt.Errorf("catalog: duplicate site %q", s.Name)
	}
	c.sites[s.Name] = s
	return nil
}

// Lookup returns the site with the given name.
func (c *SiteCatalog) Lookup(name string) (*Site, error) {
	s, ok := c.sites[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown site %q", name)
	}
	return s, nil
}

// Transformation is one entry in the transformation catalog.
type Transformation struct {
	// Name is the logical transformation name (e.g. "run_cap3").
	Name string
	// Site is the site this entry applies to.
	Site string
	// PFN is the physical path of the executable at the site.
	PFN string
	// Installed reports whether the executable (and its dependency
	// stack, e.g. Python+Biopython for blast2cap3) is preinstalled at
	// the site. When false the planner injects a download/install step.
	Installed bool
	// InstallBytes is the approximate download size of the software
	// stack when it must be staged (0 when Installed).
	InstallBytes int64
}

// TransformationCatalog maps (name, site) to transformation entries.
type TransformationCatalog struct {
	entries map[string]map[string]*Transformation // name → site → entry
}

// NewTransformationCatalog returns an empty transformation catalog.
func NewTransformationCatalog() *TransformationCatalog {
	return &TransformationCatalog{entries: make(map[string]map[string]*Transformation)}
}

// Add inserts an entry, rejecting duplicates for the same (name, site).
func (c *TransformationCatalog) Add(t *Transformation) error {
	if t.Name == "" || t.Site == "" {
		return fmt.Errorf("catalog: transformation with empty name or site")
	}
	bySite := c.entries[t.Name]
	if bySite == nil {
		bySite = make(map[string]*Transformation)
		c.entries[t.Name] = bySite
	}
	if _, dup := bySite[t.Site]; dup {
		return fmt.Errorf("catalog: duplicate transformation %q at site %q", t.Name, t.Site)
	}
	bySite[t.Site] = t
	return nil
}

// Lookup returns the entry for (name, site).
func (c *TransformationCatalog) Lookup(name, site string) (*Transformation, error) {
	if bySite, ok := c.entries[name]; ok {
		if t, ok := bySite[site]; ok {
			return t, nil
		}
	}
	return nil, fmt.Errorf("catalog: transformation %q not registered at site %q", name, site)
}

// Names returns the sorted logical transformation names.
func (c *TransformationCatalog) Names() []string {
	out := make([]string, 0, len(c.entries))
	for n := range c.entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Replica is one physical copy of a logical file.
type Replica struct {
	// Site holds the replica ("local" = the submit host).
	Site string
	// PFN is the physical file name at that site.
	PFN string
}

// ReplicaCatalog maps logical file names to their replicas.
type ReplicaCatalog struct {
	replicas map[string][]Replica
}

// NewReplicaCatalog returns an empty replica catalog.
func NewReplicaCatalog() *ReplicaCatalog {
	return &ReplicaCatalog{replicas: make(map[string][]Replica)}
}

// Add registers a replica for a logical file name.
func (c *ReplicaCatalog) Add(lfn string, r Replica) error {
	if lfn == "" {
		return fmt.Errorf("catalog: replica with empty LFN")
	}
	for _, old := range c.replicas[lfn] {
		if old == r {
			return fmt.Errorf("catalog: duplicate replica %v for %q", r, lfn)
		}
	}
	c.replicas[lfn] = append(c.replicas[lfn], r)
	return nil
}

// Has reports whether the logical file has at least one replica.
func (c *ReplicaCatalog) Has(lfn string) bool { return len(c.replicas[lfn]) > 0 }

// LFNs returns the sorted logical file names with registered replicas.
func (c *ReplicaCatalog) LFNs() []string {
	out := make([]string, 0, len(c.replicas))
	for n := range c.replicas {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
