package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"

	"pegflow/internal/fault"
	"pegflow/internal/planner"
	"pegflow/internal/workflow"
)

// Version is the scenario schema version this package reads.
const Version = 1

// maxCells bounds the cell grid a single scenario may expand to, so a
// malformed (or hostile, via pegflow serve) document cannot fan out an
// unbounded amount of simulation work.
const maxCells = 4096

// SiteSpec declares one platform of the scenario's pool: a named preset
// (sandhills, osg, cloud), a preset with overrides, or a fully inline
// definition. Override fields are pointers so that an explicit zero is
// distinguishable from "keep the preset's value".
type SiteSpec struct {
	// Name labels the site; it defaults to the preset name.
	Name string `json:"name,omitempty"`
	// Preset selects a built-in platform model: sandhills, osg or cloud.
	// Empty means fully inline, which requires Slots and SpeedFactor.
	Preset string `json:"preset,omitempty"`
	// Slots overrides the slot count (> 0).
	Slots *int `json:"slots,omitempty"`
	// SpeedFactor scales execution time (1.0 = reference, lower = faster).
	SpeedFactor *float64 `json:"speed_factor,omitempty"`
	// SpeedJitter is relative node heterogeneity in [0, 1).
	SpeedJitter *float64 `json:"speed_jitter,omitempty"`
	// SubmitInterval serializes submissions on the submit host (seconds).
	SubmitInterval *float64 `json:"submit_interval,omitempty"`
	// DispatchMean and DispatchCV parameterize the lognormal dispatch
	// (queueing) latency.
	DispatchMean *float64 `json:"dispatch_mean,omitempty"`
	DispatchCV   *float64 `json:"dispatch_cv,omitempty"`
	// SetupMean and SetupCV parameterize the lognormal download/install
	// phase of jobs whose software is not preinstalled.
	SetupMean *float64 `json:"setup_mean,omitempty"`
	SetupCV   *float64 `json:"setup_cv,omitempty"`
	// SetupMBps adds install_mb/setup_mbps seconds to the setup phase.
	SetupMBps *float64 `json:"setup_mbps,omitempty"`
	// EvictionRate is the preemption hazard in events per occupied second.
	EvictionRate *float64 `json:"eviction_rate,omitempty"`
	// InitialSlots and SlotRampSeconds model an opportunistic capacity
	// ramp: start at InitialSlots, gain one slot every SlotRampSeconds.
	InitialSlots    *int     `json:"initial_slots,omitempty"`
	SlotRampSeconds *float64 `json:"slot_ramp_seconds,omitempty"`
	// Preinstalled reports whether the software stack is already on the
	// site's nodes (no download/install step).
	Preinstalled *bool `json:"preinstalled,omitempty"`
	// InstallMB is the per-job software payload in MB for sites without
	// preinstalled software.
	InstallMB *float64 `json:"install_mb,omitempty"`
	// StageInMBps is the catalog's stage-in bandwidth used by the
	// data-aware planner policy.
	StageInMBps *float64 `json:"stage_in_mbps,omitempty"`
}

// siteName returns the effective site name (Name, else Preset).
func (s *SiteSpec) siteName() string {
	if s.Name != "" {
		return s.Name
	}
	return s.Preset
}

// ParamsSpec is an inline workload rank-size law
// (size(r) = max_cluster_size / r^size_exponent).
type ParamsSpec struct {
	NumClusters    int     `json:"num_clusters"`
	MaxClusterSize int     `json:"max_cluster_size"`
	SizeExponent   float64 `json:"size_exponent"`
	MeanReadLen    int     `json:"mean_read_len"`
}

// WorkloadSpec declares the dataset and the sweep axes.
type WorkloadSpec struct {
	// Preset names a built-in workload; "paper" is the synthetic Triticum
	// urartu dataset. Mutually exclusive with Params.
	Preset string `json:"preset,omitempty"`
	// Params synthesizes a custom workload from a rank-size law.
	Params *ParamsSpec `json:"params,omitempty"`
	// N is the cluster-chunk sweep (the paper's n axis).
	N []int `json:"n"`
	// Seeds lists simulation seeds; each becomes a grid axis value.
	// Defaults to [42].
	Seeds []uint64 `json:"seeds,omitempty"`
}

// ClusterSpec is one clustering configuration of the policy matrix.
type ClusterSpec struct {
	// MaxTasks bounds tasks bundled per clustered grid job (0 = off).
	MaxTasks int `json:"max_tasks,omitempty"`
	// TargetSeconds closes a clustered job once its estimated runtime
	// reaches this many seconds (0 = off).
	TargetSeconds float64 `json:"target_seconds,omitempty"`
}

// options converts the spec to planner options.
func (c ClusterSpec) options() planner.ClusterOptions {
	return planner.ClusterOptions{MaxTasksPerJob: c.MaxTasks, TargetJobSeconds: c.TargetSeconds}
}

// PolicySpec is the scenario's policy matrix; every combination of the
// three axes is crossed with (site set, n, seed) into one cell.
type PolicySpec struct {
	// Site lists site-selection policies (round-robin, data-aware,
	// runtime-aware). Only meaningful when site sets have ≥ 2 sites;
	// defaults to data-aware for multi-site sets.
	Site []string `json:"site,omitempty"`
	// Cluster lists clustering configurations; defaults to [off].
	Cluster []ClusterSpec `json:"cluster,omitempty"`
	// Failover lists cross-site retry settings; defaults to [false].
	Failover []bool `json:"failover,omitempty"`
}

// EnsembleSpec switches cells from one workflow to a concurrent ensemble.
type EnsembleSpec struct {
	// Workflows is the member count (≥ 1).
	Workflows int `json:"workflows"`
	// MaxInFlight caps jobs in flight across all members (0 = unlimited).
	MaxInFlight int `json:"max_inflight,omitempty"`
}

// OutputSpec selects what each cell row reports.
type OutputSpec struct {
	// Fields filters the metric fields of each cell row; empty keeps all of
	// metricFields, and the opt-in grid_jobs and per_transformation appear
	// only when named. Identity fields (cell, n, seed, sites, …) are always
	// present.
	Fields []string `json:"fields,omitempty"`
	// Percentiles adds kickstart_p<p> and waiting_p<p> per-attempt
	// percentile fields (values in [0, 100]).
	Percentiles []float64 `json:"percentiles,omitempty"`
	// Aggregate runs every cell's engines in aggregation mode: logs fold
	// into fixed-size accumulators and streaming sketches instead of
	// retaining records, so memory stays flat however many jobs a cell
	// simulates. Percentile fields then come from the sketches — exact
	// until a cell exceeds the sketch's marker count, within its
	// documented rank-error envelope beyond. Counters and makespans are
	// unaffected. omitempty keeps the fingerprints of exact-mode
	// documents unchanged; aggregated documents fingerprint differently,
	// so the result cache never serves one mode for the other.
	Aggregate bool `json:"aggregate,omitempty"`
}

// RetryBackoffSpec delays every retry by an exponentially growing window
// with full jitter: the k-th retry of a job waits uniform(0,
// min(cap_s, base_s·2^(k-1))) virtual seconds before resubmission. The
// jitter is drawn from the run's seeded RNG, so results reproduce exactly.
type RetryBackoffSpec struct {
	// BaseSeconds is the first retry's window (> 0).
	BaseSeconds float64 `json:"base_s"`
	// CapSeconds bounds the window; 0 leaves it uncapped.
	CapSeconds float64 `json:"cap_s,omitempty"`
}

// Doc is a parsed scenario document.
type Doc struct {
	// SchemaVersion must equal Version.
	SchemaVersion int `json:"version"`
	// Name labels the scenario ([A-Za-z0-9._-]+).
	Name string `json:"name"`
	// Description is free text for humans.
	Description string `json:"description,omitempty"`
	// Sites defines the platform pool.
	Sites []SiteSpec `json:"sites"`
	// SiteSets lists the site subsets the grid sweeps over; each entry is
	// a list of defined site names. Defaults to one set of all sites.
	SiteSets [][]string `json:"site_sets,omitempty"`
	// Workload declares the dataset and sweep axes.
	Workload WorkloadSpec `json:"workload"`
	// Policies is the policy matrix.
	Policies PolicySpec `json:"policies,omitempty"`
	// Ensemble, when present, runs each cell as a concurrent ensemble.
	Ensemble *EnsembleSpec `json:"ensemble,omitempty"`
	// Retries is the per-job retry budget (default 5).
	Retries *int `json:"retries,omitempty"`
	// RetryBackoff, when present, delays retries with exponential backoff
	// plus deterministic full jitter.
	RetryBackoff *RetryBackoffSpec `json:"retry_backoff,omitempty"`
	// Faults schedules deterministic site faults — timed outages with
	// recovery, capacity steps, eviction storms and dispatch blackouts —
	// against the simulated platforms. Each fault applies to the cells
	// whose site set contains its site.
	Faults []fault.Spec `json:"faults,omitempty"`
	// Outputs selects report fields and percentiles.
	Outputs OutputSpec `json:"outputs,omitempty"`
}

// metricFields lists the metric field names of a row whose document
// selects none: every field but the opt-in ones (optInFields).
func metricFields() []string {
	return []string{
		"makespan_s", "mean_workflow_makespan_s", "cumulative_kickstart_s",
		"jobs", "attempts", "retries", "evictions", "failovers", "backoffs",
		"outages", "downtime_s", "success",
	}
}

// optInFields are the fields Outputs.Fields may select beyond
// metricFields; a row carries one only when its document names it.
// grid_jobs counts the jobs DAGMan ran — a clustered composite once, where
// jobs counts each of its member tasks — and per_transformation holds each
// member's stats.PerTransformation table, in member order, computed only
// when selected.
var optInFields = []string{"grid_jobs", "per_transformation"}

// Load reads and validates a scenario file.
func Load(path string) (*Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(path, data)
}

// Parse decodes and validates scenario JSON. src names the source in
// errors (a file name for Load, a label like "request" for the server).
// Errors are line- and field-qualified where the position is known.
func Parse(src string, data []byte) (*Doc, error) {
	doc := &Doc{}
	if err := decodeStrict(src, data, doc); err != nil {
		return nil, err
	}
	if errs := doc.validate(src, nil); len(errs) > 0 {
		// Only an error message reads source lines, and finding them takes a
		// second, token-level walk of the document: a valid one never pays
		// for it. Validation is deterministic, so the second pass reports
		// the same errors, now with their lines.
		errs = doc.validate(src, positions(data))
		msgs := make([]string, len(errs))
		for i, e := range errs {
			msgs[i] = e.Error()
		}
		return nil, fmt.Errorf("%s", strings.Join(msgs, "\n"))
	}
	doc.applyDefaults()
	return doc, nil
}

// applyDefaults fills the documented defaults in place. It runs after
// validation so errors always reference what the author wrote.
func (d *Doc) applyDefaults() {
	for i := range d.Sites {
		if d.Sites[i].Name == "" {
			d.Sites[i].Name = d.Sites[i].Preset
		}
	}
	if len(d.SiteSets) == 0 {
		all := make([]string, len(d.Sites))
		for i := range d.Sites {
			all[i] = d.Sites[i].Name
		}
		d.SiteSets = [][]string{all}
	}
	if len(d.Workload.Seeds) == 0 {
		d.Workload.Seeds = []uint64{42}
	}
	if len(d.Policies.Site) == 0 {
		multi := false
		for _, set := range d.SiteSets {
			if len(set) > 1 {
				multi = true
			}
		}
		if multi {
			d.Policies.Site = []string{planner.PolicyDataAware}
		} else {
			d.Policies.Site = []string{""}
		}
	}
	if len(d.Policies.Cluster) == 0 {
		d.Policies.Cluster = []ClusterSpec{{}}
	}
	if len(d.Policies.Failover) == 0 {
		d.Policies.Failover = []bool{false}
	}
	if d.Retries == nil {
		r := 5
		d.Retries = &r
	}
	if len(d.Outputs.Fields) == 0 {
		d.Outputs.Fields = metricFields()
	}
}

// params returns the workload rank-size law of the scenario.
func (d *Doc) params() workflow.WorkloadParams {
	if d.Workload.Params != nil {
		p := d.Workload.Params
		return workflow.WorkloadParams{
			NumClusters:    p.NumClusters,
			MaxClusterSize: p.MaxClusterSize,
			SizeExponent:   p.SizeExponent,
			MeanReadLen:    p.MeanReadLen,
		}
	}
	// The paper preset (validated earlier).
	return workflow.PaperWorkload(0).Params
}

// cellCount returns the size of the grid the document expands to,
// saturating at math.MaxInt: axis lengths are author-controlled (and, via
// pegflow serve, attacker-controlled), so the product must not wrap
// around and slip under the maxCells guard.
func (d *Doc) cellCount() int {
	n := 1
	for _, k := range []int{
		len(d.SiteSets), len(d.Workload.N), len(d.Workload.Seeds),
		len(d.Policies.Site), len(d.Policies.Cluster), len(d.Policies.Failover),
	} {
		if k == 0 {
			return 0
		}
		if n > math.MaxInt/k {
			return math.MaxInt
		}
		n *= k
	}
	return n
}

// fingerprint returns the SHA-256 hex digest of the normalized document:
// the parsed form re-marshaled compactly, so formatting and key order in
// the source do not change the fingerprint, while any semantic change
// does. Call it on a parsed (defaulted) document.
func (d *Doc) fingerprint() string {
	b, err := json.Marshal(d)
	if err != nil {
		// Doc contains only marshalable fields; unreachable.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// fieldErr is a field-qualified validation error with an optional line.
func fieldErr(src string, pos map[string]int, path, format string, args ...any) error {
	loc := src
	if line := lookupLine(pos, path); line > 0 {
		loc = fmt.Sprintf("%s:%d", src, line)
	}
	return fmt.Errorf("%s: %s: %s", loc, path, fmt.Sprintf(format, args...))
}

// validate checks the document, collecting every error it can find.
func (d *Doc) validate(src string, pos map[string]int) []error {
	var errs []error
	ef := func(path, format string, args ...any) {
		errs = append(errs, fieldErr(src, pos, path, format, args...))
	}

	if d.SchemaVersion != Version {
		ef("version", "unsupported schema version %d (this build reads %d)", d.SchemaVersion, Version)
	}
	if d.Name == "" {
		ef("name", "scenario name is required")
	} else if !validName(d.Name) {
		ef("name", "%q: use letters, digits, dot, underscore or dash", d.Name)
	}

	siteNames := d.validateSites(ef)
	anyMulti, allMulti := d.validateSiteSets(ef, siteNames)
	d.validateWorkload(ef)
	d.validatePolicies(ef, anyMulti, allMulti)

	if d.Ensemble != nil {
		if d.Ensemble.Workflows < 1 {
			ef("ensemble.workflows", "must be at least 1, got %d", d.Ensemble.Workflows)
		}
		if d.Ensemble.MaxInFlight < 0 {
			ef("ensemble.max_inflight", "must be non-negative, got %d", d.Ensemble.MaxInFlight)
		}
	}
	if d.Retries != nil && *d.Retries < 0 {
		ef("retries", "must be non-negative, got %d", *d.Retries)
	}
	if rb := d.RetryBackoff; rb != nil {
		if !(rb.BaseSeconds > 0) || math.IsInf(rb.BaseSeconds, 0) {
			ef("retry_backoff.base_s", "must be positive and finite, got %v", rb.BaseSeconds)
		}
		if rb.CapSeconds < 0 || math.IsNaN(rb.CapSeconds) || math.IsInf(rb.CapSeconds, 0) {
			ef("retry_backoff.cap_s", "must be non-negative and finite, got %v", rb.CapSeconds)
		}
	}
	d.validateFaults(ef, siteNames)
	d.validateOutputs(ef)

	if len(errs) == 0 {
		if cells := d.cellCountAfterDefaults(); cells > maxCells {
			ef("workload", "scenario expands to %d cells, more than the limit of %d", cells, maxCells)
		}
	}
	return errs
}

// cellCountAfterDefaults sizes the grid as applyDefaults would see it,
// without mutating the document.
func (d *Doc) cellCountAfterDefaults() int {
	c := *d
	c.applyDefaults()
	return c.cellCount()
}

func validName(s string) bool {
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return s != ""
}

func (d *Doc) validateSites(ef func(path, format string, args ...any)) map[string]bool {
	names := make(map[string]bool)
	if len(d.Sites) == 0 {
		ef("sites", "at least one site is required")
		return names
	}
	for i := range d.Sites {
		s := &d.Sites[i]
		p := func(field string) string { return fmt.Sprintf("sites[%d].%s", i, field) }
		name := s.siteName()
		if name == "" {
			ef(fmt.Sprintf("sites[%d]", i), "site needs a name or a preset")
		} else if names[name] {
			ef(p("name"), "duplicate site name %q", name)
		} else if !validName(name) {
			ef(p("name"), "%q: use letters, digits, dot, underscore or dash", name)
		}
		names[name] = true
		if s.Preset == "" {
			if s.Slots == nil {
				ef(p("slots"), "inline site needs an explicit slot count")
			}
			if s.SpeedFactor == nil {
				ef(p("speed_factor"), "inline site needs an explicit speed factor")
			}
		} else if _, err := workflow.Preset(s.Preset); err != nil {
			ef(p("preset"), "unknown preset %q (have %s)", s.Preset, strings.Join(workflow.PresetNames(), ", "))
		}
		if s.Slots != nil && *s.Slots <= 0 {
			ef(p("slots"), "must be positive, got %d", *s.Slots)
		}
		if s.SpeedFactor != nil && *s.SpeedFactor <= 0 {
			ef(p("speed_factor"), "must be positive, got %v", *s.SpeedFactor)
		}
		if s.SpeedJitter != nil && (*s.SpeedJitter < 0 || *s.SpeedJitter >= 1) {
			ef(p("speed_jitter"), "must be in [0, 1), got %v", *s.SpeedJitter)
		}
		// Ordered slice, not a map: validation errors must come out in
		// declaration order every run (pegflow-lint detrange enforces
		// this — a map range here emitted them in random order).
		for _, fv := range []struct {
			field string
			v     *float64
		}{
			{"submit_interval", s.SubmitInterval}, {"dispatch_mean", s.DispatchMean},
			{"dispatch_cv", s.DispatchCV}, {"setup_mean", s.SetupMean}, {"setup_cv", s.SetupCV},
			{"setup_mbps", s.SetupMBps}, {"eviction_rate", s.EvictionRate},
			{"slot_ramp_seconds", s.SlotRampSeconds}, {"install_mb", s.InstallMB},
			{"stage_in_mbps", s.StageInMBps},
		} {
			if fv.v != nil && *fv.v < 0 {
				ef(p(fv.field), "must be non-negative, got %v", *fv.v)
			}
		}
		if s.InitialSlots != nil && *s.InitialSlots < 0 {
			ef(p("initial_slots"), "must be non-negative, got %d", *s.InitialSlots)
		}
	}
	return names
}

// validateSiteSets checks the site-set axis and reports whether any — and
// whether every — set (after defaulting) has at least two sites.
func (d *Doc) validateSiteSets(ef func(path, format string, args ...any), siteNames map[string]bool) (anyMulti, allMulti bool) {
	sets := d.SiteSets
	if len(sets) == 0 {
		return len(d.Sites) > 1, len(d.Sites) > 1
	}
	allMulti = true
	for i, set := range sets {
		if len(set) == 0 {
			ef(fmt.Sprintf("site_sets[%d]", i), "empty site set")
			continue
		}
		if len(set) < 2 {
			allMulti = false
		} else {
			anyMulti = true
		}
		seen := make(map[string]bool)
		for j, name := range set {
			path := fmt.Sprintf("site_sets[%d][%d]", i, j)
			if !siteNames[name] {
				ef(path, "site %q is not defined under sites", name)
			}
			if seen[name] {
				ef(path, "site %q repeated within the set", name)
			}
			seen[name] = true
		}
	}
	return anyMulti, allMulti
}

func (d *Doc) validateWorkload(ef func(path, format string, args ...any)) {
	w := &d.Workload
	switch {
	case w.Preset != "" && w.Params != nil:
		ef("workload", "preset and params are mutually exclusive")
	case w.Preset != "" && w.Preset != "paper":
		ef("workload.preset", "unknown preset %q (have paper)", w.Preset)
	case w.Preset == "" && w.Params == nil:
		ef("workload", `either preset ("paper") or params is required`)
	}
	if w.Params != nil {
		p := w.Params
		if p.NumClusters <= 0 {
			ef("workload.params.num_clusters", "must be positive, got %d", p.NumClusters)
		}
		if p.MaxClusterSize <= 0 {
			ef("workload.params.max_cluster_size", "must be positive, got %d", p.MaxClusterSize)
		}
		if p.SizeExponent < 0 {
			ef("workload.params.size_exponent", "must be non-negative, got %v", p.SizeExponent)
		}
		if p.MeanReadLen <= 0 {
			ef("workload.params.mean_read_len", "must be positive, got %d", p.MeanReadLen)
		}
	}
	if len(w.N) == 0 {
		ef("workload.n", "at least one chunk count is required")
	}
	for i, n := range w.N {
		if n <= 0 {
			ef(fmt.Sprintf("workload.n[%d]", i), "must be positive, got %d", n)
		}
	}
}

func (d *Doc) validatePolicies(ef func(path, format string, args ...any), anyMulti, allMulti bool) {
	// "" is the placeholder applyDefaults writes when no set has two sites;
	// accepting it there keeps already-defaulted documents re-validatable.
	known := map[string]bool{"": !anyMulti}
	for _, p := range planner.PolicyNames() {
		known[p] = true
	}
	explicit := false
	for i, p := range d.Policies.Site {
		if p != "" {
			explicit = true
		}
		if !known[p] {
			ef(fmt.Sprintf("policies.site[%d]", i), "unknown policy %q (have %s)",
				p, strings.Join(planner.PolicyNames(), ", "))
		}
	}
	if explicit && !anyMulti {
		ef("policies.site", "site policies need a site set with at least two sites")
	}
	for i, c := range d.Policies.Cluster {
		if c.MaxTasks < 0 {
			ef(fmt.Sprintf("policies.cluster[%d].max_tasks", i), "must be non-negative, got %d", c.MaxTasks)
		}
		if c.TargetSeconds < 0 {
			ef(fmt.Sprintf("policies.cluster[%d].target_seconds", i), "must be non-negative, got %v", c.TargetSeconds)
		}
	}
	for i, f := range d.Policies.Failover {
		if f && !allMulti {
			ef(fmt.Sprintf("policies.failover[%d]", i),
				"failover needs every site set to have at least two sites")
		}
	}
}

// validateFaults checks every fault spec and that each targets a declared
// site. Faults need not appear in every site set: a cell only installs the
// faults whose site its set contains.
func (d *Doc) validateFaults(ef func(path, format string, args ...any), siteNames map[string]bool) {
	for i := range d.Faults {
		f := &d.Faults[i]
		if f.Site != "" && !siteNames[f.Site] {
			ef(fmt.Sprintf("faults[%d].site", i), "site %q is not defined under sites", f.Site)
		}
		for _, fe := range f.Validate() {
			ef(fmt.Sprintf("faults[%d].%s", i, fe.Field), "%s", fe.Msg)
		}
	}
}

func (d *Doc) validateOutputs(ef func(path, format string, args ...any)) {
	selectable := append(metricFields(), optInFields...)
	for i, f := range d.Outputs.Fields {
		if !slices.Contains(selectable, f) {
			ef(fmt.Sprintf("outputs.fields[%d]", i), "unknown field %q (have %s)",
				f, strings.Join(selectable, ", "))
		}
	}
	for i, p := range d.Outputs.Percentiles {
		if p < 0 || p > 100 {
			ef(fmt.Sprintf("outputs.percentiles[%d]", i), "must be in [0, 100], got %v", p)
		}
	}
}
