package fault

import (
	"fmt"
	"math"
	"sort"
)

// Fault types accepted in a scenario document's `faults` section.
const (
	// TypeOutage takes a site fully down at At and restores it At+Duration
	// later. The eviction profile decides what happens to occupied slots.
	TypeOutage = "outage"
	// TypeCapacity steps the site's fault-imposed slot limit at At. A step
	// has no automatic recovery: capacity stays limited until a later step
	// raises it.
	TypeCapacity = "capacity"
	// TypeStorm multiplies (and/or adds to) the site's eviction hazard over
	// [At, At+Duration), optionally evicting a fraction of the occupied
	// slots the moment it begins — a correlated preemption burst.
	TypeStorm = "storm"
	// TypeBlackout holds job dispatch over [At, At+Duration): attempts
	// whose dispatch would land inside the window are released at its end.
	TypeBlackout = "blackout"
)

// Eviction profiles for TypeOutage.
const (
	// profilePreempt evicts every occupied slot when the outage begins —
	// the glidein-vanishes case.
	profilePreempt = "preempt"
	// ProfileDrain lets running attempts finish while refusing new slot
	// grants — an administrative drain.
	ProfileDrain = "drain"
)

// Spec is one declared fault, as written in a scenario document. All
// times are seconds of virtual (simulation) time.
type Spec struct {
	// Type is one of outage, capacity, storm or blackout.
	Type string `json:"type"`
	// Site names the platform the fault applies to.
	Site string `json:"site"`
	// At is when the fault begins.
	At float64 `json:"at"`
	// Duration bounds outage/storm/blackout windows; capacity steps have
	// none (they persist until the next step).
	Duration float64 `json:"duration,omitempty"`
	// Profile selects the outage eviction profile: preempt (default) or
	// drain.
	Profile string `json:"profile,omitempty"`
	// Slots is the capacity step's new fault-imposed slot limit (>= 0; a
	// value at or above the configured capacity removes the limit).
	Slots *int `json:"slots,omitempty"`
	// Multiplier scales the site's base eviction hazard during a storm
	// (default 1 = unchanged).
	Multiplier float64 `json:"multiplier,omitempty"`
	// Rate adds an absolute hazard (events per occupied second) during a
	// storm, on top of the multiplied base — the only way to storm a site
	// whose base hazard is zero.
	Rate float64 `json:"rate,omitempty"`
	// KillFraction evicts this fraction of occupied slots when the storm
	// begins (each occupied slot independently, in [0, 1]).
	KillFraction float64 `json:"kill_fraction,omitempty"`
}

// FieldError is one validation finding, addressed by the spec field that
// caused it so callers can prefix their own document paths.
type FieldError struct {
	// Field is the JSON field name ("type", "at", ...).
	Field string
	// Msg is the human-readable problem.
	Msg string
}

// Validate checks one spec in isolation (site existence is the caller's
// concern — only the scenario knows the declared pool).
func (s *Spec) Validate() []FieldError {
	var errs []FieldError
	ef := func(field, format string, args ...any) {
		errs = append(errs, FieldError{Field: field, Msg: fmt.Sprintf(format, args...)})
	}
	switch s.Type {
	case TypeOutage, TypeStorm, TypeBlackout:
		if s.Duration <= 0 {
			ef("duration", "%s needs a positive duration, got %v", s.Type, s.Duration)
		}
	case TypeCapacity:
		if s.Slots == nil {
			ef("slots", "capacity step needs an explicit slot limit")
		}
		if s.Duration != 0 {
			ef("duration", "capacity steps persist until the next step; use an outage for a timed window")
		}
	case "":
		ef("type", "fault needs a type (outage, capacity, storm or blackout)")
	default:
		ef("type", "unknown fault type %q (have outage, capacity, storm, blackout)", s.Type)
	}
	if s.Site == "" {
		ef("site", "fault needs a site")
	}
	if s.At < 0 || math.IsNaN(s.At) || math.IsInf(s.At, 0) {
		ef("at", "must be a non-negative time, got %v", s.At)
	}
	if s.Duration < 0 || math.IsNaN(s.Duration) || math.IsInf(s.Duration, 0) {
		ef("duration", "must be a non-negative duration, got %v", s.Duration)
	}
	if s.Profile != "" {
		if s.Type != TypeOutage {
			ef("profile", "profile only applies to outages")
		} else if s.Profile != profilePreempt && s.Profile != ProfileDrain {
			ef("profile", "unknown profile %q (have preempt, drain)", s.Profile)
		}
	}
	if s.Slots != nil {
		if s.Type != TypeCapacity {
			ef("slots", "slots only applies to capacity steps")
		} else if *s.Slots < 0 {
			ef("slots", "must be non-negative, got %d", *s.Slots)
		}
	}
	if s.Multiplier != 0 && s.Type != TypeStorm {
		ef("multiplier", "multiplier only applies to storms")
	}
	if s.Multiplier < 0 {
		ef("multiplier", "must be non-negative, got %v", s.Multiplier)
	}
	if s.Rate != 0 && s.Type != TypeStorm {
		ef("rate", "rate only applies to storms")
	}
	if s.Rate < 0 || math.IsNaN(s.Rate) || math.IsInf(s.Rate, 0) {
		ef("rate", "must be a non-negative hazard, got %v", s.Rate)
	}
	if s.KillFraction != 0 && s.Type != TypeStorm {
		ef("kill_fraction", "kill_fraction only applies to storms")
	}
	if s.KillFraction < 0 || s.KillFraction > 1 || math.IsNaN(s.KillFraction) {
		ef("kill_fraction", "must be in [0, 1], got %v", s.KillFraction)
	}
	return errs
}

// NoLimit is the capacity-step value meaning "no fault-imposed limit".
const NoLimit = math.MaxInt32

// CapacityStep sets the fault-imposed slot limit of a site at a point in
// virtual time. The effective capacity is min(ramp capacity, limit).
type CapacityStep struct {
	At    float64
	Limit int
}

// Preempt evicts occupied slots at a point in virtual time: each occupied
// slot is evicted independently with probability Fraction (1 = all).
type Preempt struct {
	At       float64
	Fraction float64
}

// HazardWindow scales the eviction hazard over [Start, End): effective
// hazard = base*Multiplier + Rate while inside the window. Overlapping
// windows compose by applying every matching window's multiplier and
// summing their added rates.
type HazardWindow struct {
	Start, End float64
	Multiplier float64
	Rate       float64
}

// Window is a half-open interval [Start, End) of virtual time.
type Window struct {
	Start, End float64
}

// Timeline is the compiled fault schedule of one site, ready to install
// on a simulated platform. All slices are sorted by start time.
type Timeline struct {
	// Site names the platform.
	Site string
	// Steps are the fault-imposed capacity limits in time order. An
	// outage contributes a Limit-0 step and a NoLimit recovery step.
	Steps []CapacityStep
	// Preempts are the correlated eviction points in time order.
	Preempts []Preempt
	// Hazards are the storm windows in start order.
	Hazards []HazardWindow
	// Blackouts are the dispatch-hold windows in start order.
	Blackouts []Window
}

// Script is a compiled fault schedule: one Timeline per faulted site.
type Script struct {
	byName map[string]*Timeline
	order  []string
}

// Sites returns the faulted site names in sorted order.
func (s *Script) Sites() []string {
	out := append([]string(nil), s.order...)
	sort.Strings(out)
	return out
}

// Site returns the timeline for the named site, or nil when the script
// does not touch it.
func (s *Script) Site(name string) *Timeline {
	if s == nil {
		return nil
	}
	return s.byName[name]
}

// Compile validates and compiles a fault list into per-site timelines.
// An empty list compiles to nil: no script, no overhead.
func Compile(specs []Spec) (*Script, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	for i := range specs {
		if errs := specs[i].Validate(); len(errs) > 0 {
			return nil, fmt.Errorf("fault: faults[%d].%s: %s", i, errs[0].Field, errs[0].Msg)
		}
	}
	s := &Script{byName: make(map[string]*Timeline)}
	tl := func(site string) *Timeline {
		t := s.byName[site]
		if t == nil {
			t = &Timeline{Site: site}
			s.byName[site] = t
			s.order = append(s.order, site)
		}
		return t
	}
	for i := range specs {
		sp := &specs[i]
		t := tl(sp.Site)
		switch sp.Type {
		case TypeOutage:
			t.Steps = append(t.Steps,
				CapacityStep{At: sp.At, Limit: 0},
				CapacityStep{At: sp.At + sp.Duration, Limit: NoLimit})
			if sp.Profile != ProfileDrain {
				t.Preempts = append(t.Preempts, Preempt{At: sp.At, Fraction: 1})
			}
		case TypeCapacity:
			t.Steps = append(t.Steps, CapacityStep{At: sp.At, Limit: *sp.Slots})
		case TypeStorm:
			mult := sp.Multiplier
			if mult == 0 {
				mult = 1
			}
			t.Hazards = append(t.Hazards, HazardWindow{
				Start: sp.At, End: sp.At + sp.Duration, Multiplier: mult, Rate: sp.Rate,
			})
			if sp.KillFraction > 0 {
				t.Preempts = append(t.Preempts, Preempt{At: sp.At, Fraction: sp.KillFraction})
			}
		case TypeBlackout:
			t.Blackouts = append(t.Blackouts, Window{Start: sp.At, End: sp.At + sp.Duration})
		}
	}
	for _, t := range s.byName {
		// Stable sorts: faults declared at the same instant apply in
		// declaration order, so the document fully determines the schedule.
		sort.SliceStable(t.Steps, func(i, j int) bool { return t.Steps[i].At < t.Steps[j].At })
		sort.SliceStable(t.Preempts, func(i, j int) bool { return t.Preempts[i].At < t.Preempts[j].At })
		sort.SliceStable(t.Hazards, func(i, j int) bool { return t.Hazards[i].Start < t.Hazards[j].Start })
		sort.SliceStable(t.Blackouts, func(i, j int) bool { return t.Blackouts[i].Start < t.Blackouts[j].Start })
	}
	return s, nil
}

// HazardAt returns the effective eviction hazard at time t given a base
// hazard: every window containing t applies its multiplier to the base
// and adds its rate.
func (t *Timeline) HazardAt(base, at float64) float64 {
	h := base
	add := 0.0
	for _, w := range t.Hazards {
		if at >= w.Start && at < w.End {
			h *= w.Multiplier
			add += w.Rate
		}
	}
	return h + add
}

// HazardBreakpoints appends to dst the window boundaries strictly inside
// (from, to), sorted ascending — the segment edges a piecewise-constant
// hazard integration must split on.
func (t *Timeline) HazardBreakpoints(dst []float64, from, to float64) []float64 {
	for _, w := range t.Hazards {
		if w.Start > from && w.Start < to {
			dst = append(dst, w.Start)
		}
		if w.End > from && w.End < to {
			dst = append(dst, w.End)
		}
	}
	sort.Float64s(dst)
	return dst
}

// DelayThroughBlackouts pushes a dispatch landing inside a blackout
// window to that window's end, cascading through windows that begin
// before the pushed time.
func (t *Timeline) DelayThroughBlackouts(at float64) float64 {
	for _, w := range t.Blackouts {
		if at >= w.Start && at < w.End {
			at = w.End
		}
	}
	return at
}
