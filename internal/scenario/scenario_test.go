package scenario

import (
	"strings"
	"testing"

	"pegflow/internal/ensemble"
)

// minimal is a small, fast, valid scenario exercising both execution
// paths: a built-in preset pair swept as single-site sets.
const minimal = `{
  "version": 1,
  "name": "unit-test",
  "sites": [
    {"preset": "sandhills", "slots": 24},
    {"preset": "osg", "slots": 48}
  ],
  "site_sets": [["sandhills"], ["osg"]],
  "workload": {
    "params": {"num_clusters": 200, "max_cluster_size": 60, "size_exponent": 0.5, "mean_read_len": 900},
    "n": [4, 8],
    "seeds": [7]
  },
  "outputs": {"percentiles": [50, 99]}
}`

func parseMinimal(t *testing.T) *Doc {
	t.Helper()
	doc, err := Parse("unit.json", []byte(minimal))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestParseAppliesDefaults(t *testing.T) {
	doc := parseMinimal(t)
	if doc.Sites[0].Name != "sandhills" {
		t.Errorf("site name not defaulted from preset: %q", doc.Sites[0].Name)
	}
	if len(doc.Policies.Site) != 1 || doc.Policies.Site[0] != "" {
		t.Errorf("single-site sets should default to the empty policy axis, got %v", doc.Policies.Site)
	}
	if got := len(doc.Workload.Seeds); got != 1 {
		t.Errorf("seeds = %d, want explicit [7] preserved", got)
	}
	if *doc.Retries != 5 {
		t.Errorf("retries default = %d, want 5", *doc.Retries)
	}
	if len(doc.Outputs.Fields) != len(metricFields()) {
		t.Errorf("fields should default to all metrics, got %v", doc.Outputs.Fields)
	}
}

func TestParseErrorsAreLineAndFieldQualified(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string // substrings of the error
	}{
		{
			name: "negative slots with line",
			src: `{
  "version": 1,
  "name": "bad",
  "sites": [
    {"preset": "osg",
     "slots": -3}
  ],
  "workload": {"preset": "paper", "n": [10]}
}`,
			want: []string{"bad.json:6", "sites[0].slots", "must be positive, got -3"},
		},
		{
			name: "unknown preset",
			src: `{
  "version": 1,
  "name": "bad",
  "sites": [{"preset": "condor"}],
  "workload": {"preset": "paper", "n": [10]}
}`,
			want: []string{"bad.json:4", "sites[0].preset", `unknown preset "condor"`},
		},
		{
			name: "unknown output field",
			src: `{
  "version": 1,
  "name": "bad",
  "sites": [{"preset": "osg"}],
  "workload": {"preset": "paper", "n": [10]},
  "outputs": {"fields": ["makespan_s", "latency"]}
}`,
			want: []string{"bad.json:6", "outputs.fields[1]", `unknown field "latency"`},
		},
		{
			name: "undefined site in set",
			src: `{
  "version": 1,
  "name": "bad",
  "sites": [{"preset": "osg"}],
  "site_sets": [["osg", "grid5000"]],
  "workload": {"preset": "paper", "n": [10]}
}`,
			want: []string{"bad.json:5", "site_sets[0][1]", "not defined"},
		},
		{
			name: "failover on single-site set",
			src: `{
  "version": 1,
  "name": "bad",
  "sites": [{"preset": "osg"}],
  "workload": {"preset": "paper", "n": [10]},
  "policies": {"failover": [true]}
}`,
			want: []string{"policies.failover[0]", "at least two sites"},
		},
		{
			name: "unknown top-level key",
			src: `{
  "version": 1,
  "name": "bad",
  "platforms": []
}`,
			want: []string{"bad.json:", "unknown field"},
		},
		{
			name: "syntax error with line",
			src: `{
  "version": 1,
  "name": "bad",,
}`,
			want: []string{"bad.json:3"},
		},
		{
			name: "type error with field",
			src: `{
  "version": 1,
  "name": "bad",
  "sites": [{"preset": "osg", "slots": "many"}],
  "workload": {"preset": "paper", "n": [10]}
}`,
			want: []string{"bad.json:4", "slots"},
		},
		{
			name: "multiple errors reported together",
			src: `{
  "version": 3,
  "name": "",
  "sites": [],
  "workload": {"n": []}
}`,
			want: []string{"version", "name", "sites", "workload"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse("bad.json", []byte(tc.src))
			if err == nil {
				t.Fatal("expected an error")
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q\nmissing substring %q", err, w)
				}
			}
		})
	}
}

func TestFingerprintNormalizesFormatting(t *testing.T) {
	a := parseMinimal(t)
	// Same document, different whitespace and key order.
	reordered := `{
  "name": "unit-test",
  "outputs": {"percentiles": [50, 99]},
  "workload": {"seeds": [7], "n": [4, 8],
    "params": {"mean_read_len": 900, "num_clusters": 200, "max_cluster_size": 60, "size_exponent": 0.5}},
  "site_sets": [["sandhills"], ["osg"]],
  "sites": [{"preset": "sandhills", "slots": 24}, {"preset": "osg", "slots": 48}],
  "version": 1
}`
	b, err := Parse("b.json", []byte(reordered))
	if err != nil {
		t.Fatal(err)
	}
	if a.fingerprint() != b.fingerprint() {
		t.Error("fingerprint depends on formatting/key order")
	}
	// A semantic change must change it.
	c := parseMinimal(t)
	c.Workload.N = []int{4, 9}
	if a.fingerprint() == c.fingerprint() {
		t.Error("fingerprint ignored a semantic change")
	}
}

func TestCompileExpandsGridInOrder(t *testing.T) {
	doc := parseMinimal(t)
	c, err := Compile(doc)
	if err != nil {
		t.Fatal(err)
	}
	// 2 site sets × 2 n × 1 seed × 1 policy × 1 cluster × 1 failover.
	if len(c.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(c.Cells))
	}
	want := []struct {
		site string
		n    int
	}{
		{"sandhills", 4}, {"sandhills", 8}, {"osg", 4}, {"osg", 8},
	}
	for i, w := range want {
		cell := c.Cells[i]
		if cell.Index != i || cell.SiteSet[0] != w.site || cell.N != w.n {
			t.Errorf("cell %d = %+v, want site %s n %d", i, cell, w.site, w.n)
		}
		if ensemble.StageIn(cell.SiteSet) {
			t.Errorf("cell %d: one workflow on the %s preset plans stage-in jobs", i, w.site)
		}
	}
}

// TestStageInPredicate pins the one stage-in rule, ensemble.StageIn, on the
// document shapes that used to decide it: a cell's plans carry stage-in jobs
// iff the cell can place work on more than one site. Nothing else in the
// document moves a one-site cell's plan — not an overridden, renamed or
// inline site, cloud with slots, an ensemble block, a fault or a backoff —
// so every one-site row runs as many jobs per workflow as the pristine
// preset, and every two-site row, failover on or off, runs more.
func TestStageInPredicate(t *testing.T) {
	const workload = `"workload": {"params": {"num_clusters": 100, "max_cluster_size": 40, "size_exponent": 0.5, "mean_read_len": 800}, "n": [4]}`
	cases := []struct {
		name string
		doc  string // the document's members besides version, name and workload
		want []bool // stage-in per cell, in grid order
	}{
		{"pristine, overridden and multi-site sets", `
  "sites": [{"preset": "sandhills", "slots": 16},
            {"name": "osg-slow", "preset": "osg", "slots": 16, "speed_factor": 2.0}],
  "site_sets": [["sandhills"], ["osg-slow"], ["sandhills", "osg-slow"]]`,
			[]bool{false, false, true}},
		{"renamed preset", `
  "sites": [{"name": "campus", "preset": "sandhills"}]`,
			[]bool{false}},
		{"inline site", `
  "sites": [{"name": "lab", "slots": 8, "speed_factor": 1.0}]`,
			[]bool{false}},
		{"cloud, with and without slots", `
  "sites": [{"preset": "cloud"}, {"name": "cloud-big", "preset": "cloud", "slots": 900}],
  "site_sets": [["cloud"], ["cloud-big"]]`,
			[]bool{false, false}},
		{"cloud with slots under its own name", `
  "sites": [{"preset": "cloud", "slots": 900}]`,
			[]bool{false}},
		{"ensemble block", `
  "sites": [{"preset": "osg"}],
  "ensemble": {"workflows": 2}`,
			[]bool{false}},
		{"fault on another site", `
  "sites": [{"preset": "sandhills"}, {"preset": "osg"}],
  "site_sets": [["sandhills"], ["osg"]],
  "faults": [{"type": "outage", "site": "osg", "at": 100, "duration": 50}]`,
			[]bool{false, false}},
		{"retry_backoff", `
  "sites": [{"preset": "osg"}],
  "retry_backoff": {"base_s": 30, "cap_s": 600}`,
			[]bool{false}},
		{"failover cells", `
  "sites": [{"preset": "sandhills"}, {"preset": "osg"}],
  "site_sets": [["sandhills", "osg"]],
  "policies": {"site": ["data-aware"], "failover": [false, true]}`,
			[]bool{true, true}},
	}
	pristineJobs := 0 // per workflow, from the first row's first cell
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := compileSource(t, "edge.json", []byte(`{"version": 1, "name": "edge", `+workload+`,`+tc.doc+`}`))
			if len(c.Cells) != len(tc.want) {
				t.Fatalf("cells = %d, want %d", len(c.Cells), len(tc.want))
			}
			for i, cell := range c.Cells {
				stageIn := ensemble.StageIn(cell.SiteSet)
				if stageIn != tc.want[i] {
					t.Errorf("cell %d (sites %v, failover %v): stage-in = %v, want %v",
						i, cell.SiteSet, cell.Failover, stageIn, tc.want[i])
				}
				res, err := c.Simulate(cell)
				if err != nil {
					t.Fatal(err)
				}
				m := metricsOf(res)
				res.Release()
				jobs := m.jobs / c.workflows()
				switch {
				case ci == 0 && i == 0:
					pristineJobs = jobs
				case pristineJobs == 0:
					t.Fatal("the pristine row did not run")
				case stageIn && jobs <= pristineJobs:
					t.Errorf("cell %d (sites %v, failover %v): %d jobs per workflow, want more than the pristine row's %d",
						i, cell.SiteSet, cell.Failover, jobs, pristineJobs)
				case !stageIn && jobs != pristineJobs:
					t.Errorf("cell %d (sites %v): %d jobs per workflow, want the pristine row's %d",
						i, cell.SiteSet, jobs, pristineJobs)
				}
			}
		})
	}
}

func TestCellCapEnforced(t *testing.T) {
	src := `{
  "version": 1,
  "name": "huge",
  "sites": [{"preset": "osg"}],
  "workload": {"preset": "paper", "n": [` + strings.Repeat("1,", 5000) + `1]}
}`
	_, err := Parse("huge.json", []byte(src))
	if err == nil || !strings.Contains(err.Error(), "cells") {
		t.Fatalf("expected the cell cap to trip, got %v", err)
	}
}

// TestValidationErrorOrderIsDeterministic pins the detrange fix in
// validateSites: the per-field negativity checks used to range a map, so
// a scenario with several bad fields reported them in a different order
// on different runs. They must come out in field declaration order,
// identically, every time.
func TestValidationErrorOrderIsDeterministic(t *testing.T) {
	bad := `{
  "version": 1,
  "name": "bad-fields",
  "sites": [
    {"name": "s", "slots": 4, "speed_factor": 1.0,
     "submit_interval": -1, "dispatch_mean": -2, "setup_mean": -3,
     "eviction_rate": -4, "stage_in_mbps": -5}
  ],
  "workload": {
    "params": {"num_clusters": 10, "max_cluster_size": 6, "size_exponent": 0.5, "mean_read_len": 900},
    "n": [2]
  }
}`
	_, err := Parse("bad.json", []byte(bad))
	if err == nil {
		t.Fatal("want validation errors, got nil")
	}
	first := err.Error()
	order := []string{"submit_interval", "dispatch_mean", "setup_mean", "eviction_rate", "stage_in_mbps"}
	last := -1
	for _, field := range order {
		i := strings.Index(first, field)
		if i < 0 {
			t.Fatalf("error is missing field %q:\n%s", field, first)
		}
		if i < last {
			t.Fatalf("field %q reported out of declaration order:\n%s", field, first)
		}
		last = i
	}
	for run := 0; run < 20; run++ {
		_, err := Parse("bad.json", []byte(bad))
		if err == nil || err.Error() != first {
			t.Fatalf("run %d: error text changed:\n%s\nvs\n%s", run, err, first)
		}
	}
}
