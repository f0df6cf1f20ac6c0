package scenario

import (
	"encoding/json"
	"slices"
	"testing"

	"pegflow/internal/stats"
)

// optInGrid is one preset site at one n, clustering off and on, with both
// opt-in fields selected beside jobs.
const optInGrid = `{
  "version": 1, "name": "opt-in-fields",
  "sites": [{"preset": "osg"}],
  "workload": {"preset": "paper", "n": [60], "seeds": [7]},
  "policies": {"cluster": [{}, {"max_tasks": 4}]},
  "outputs": {"fields": ["makespan_s", "jobs", "grid_jobs", "per_transformation"]}
}`

// TestOptInFieldsMatchTheRun: per_transformation is stats.PerTransformation
// of the cell's run, in exact and in aggregate mode, and grid_jobs counts
// the jobs the engine ran — a composite once — while jobs keeps counting
// tasks.
func TestOptInFieldsMatchTheRun(t *testing.T) {
	for _, aggregate := range []bool{false, true} {
		doc, err := Parse("optin.json", []byte(optInGrid))
		if err != nil {
			t.Fatal(err)
		}
		doc.Outputs.Aggregate = aggregate
		c, err := Compile(doc)
		if err != nil {
			t.Fatal(err)
		}
		lines, err := c.Run(RunOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i, cell := range c.Cells {
			var row struct {
				Jobs              int                 `json:"jobs"`
				GridJobs          int                 `json:"grid_jobs"`
				PerTransformation [][]stats.TaskStats `json:"per_transformation"`
			}
			if err := json.Unmarshal(lines[1+i], &row); err != nil {
				t.Fatal(err)
			}
			res := referenceRun(t, c, cell)
			if want := [][]stats.TaskStats{stats.PerTransformation(res.Log)}; !slices.EqualFunc(row.PerTransformation, want, slices.Equal) {
				t.Errorf("aggregate=%v cell %d: per_transformation %+v, the run's %+v", aggregate, i, row.PerTransformation, want)
			}
			if want := len(res.Completed) + len(res.Unfinished); row.GridJobs != want {
				t.Errorf("aggregate=%v cell %d: grid_jobs %d, the engine ran %d", aggregate, i, row.GridJobs, want)
			}
			if want := stats.Summarize(res.Log, res.Makespan).Jobs; row.Jobs != want {
				t.Errorf("aggregate=%v cell %d: jobs %d, want %d tasks", aggregate, i, row.Jobs, want)
			}
			if clustered := cell.Cluster.MaxTasks > 0; clustered != (row.GridJobs < row.Jobs) {
				t.Errorf("aggregate=%v cell %d (cluster %+v): %d grid jobs for %d tasks", aggregate, i, cell.Cluster, row.GridJobs, row.Jobs)
			}
		}
	}
}

// TestOptInFieldsPerMember: an ensemble row carries one per-transformation
// table per member, and grid_jobs sums over the members.
func TestOptInFieldsPerMember(t *testing.T) {
	lines := runLines(t, `{
  "version": 1, "name": "opt-in-ensemble",
  "sites": [{"preset": "sandhills"}, {"preset": "osg"}],
  "workload": {"preset": "paper", "n": [12]},
  "ensemble": {"workflows": 3},
  "outputs": {"fields": ["jobs", "grid_jobs", "per_transformation"]}
}`, 1)
	var row struct {
		Jobs              int                 `json:"jobs"`
		GridJobs          int                 `json:"grid_jobs"`
		PerTransformation [][]stats.TaskStats `json:"per_transformation"`
	}
	if err := json.Unmarshal(lines[1], &row); err != nil {
		t.Fatal(err)
	}
	if len(row.PerTransformation) != 3 {
		t.Fatalf("%d per-transformation tables, want one per member (3)", len(row.PerTransformation))
	}
	tasks := 0
	for _, table := range row.PerTransformation {
		for _, ts := range table {
			tasks += ts.Count
		}
	}
	if tasks != row.Jobs {
		t.Errorf("per-member tables count %d tasks, the row %d jobs", tasks, row.Jobs)
	}
	// Unclustered, with stage-in jobs, the engine runs more jobs than tasks
	// it records under a transformation, never fewer.
	if row.GridJobs < row.Jobs {
		t.Errorf("grid_jobs %d below jobs %d on an unclustered ensemble", row.GridJobs, row.Jobs)
	}
}

// TestOptInFieldsStayOut: a document that names neither field gets rows
// without them, and its defaulted field list is metricFields — so every
// existing document keeps its fingerprint and its bytes (the scenario
// goldens of cmd/pegflow pin those).
func TestOptInFieldsStayOut(t *testing.T) {
	c := compileSource(t, "minimal.json", []byte(minimal))
	if !slices.Equal(c.Doc.Outputs.Fields, metricFields()) {
		t.Fatalf("defaulted fields %v, want metricFields", c.Doc.Outputs.Fields)
	}
	for _, f := range optInFields {
		if slices.Contains(metricFields(), f) {
			t.Errorf("opt-in field %q is in metricFields", f)
		}
	}
	lines, err := c.Run(RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range lines[1 : len(lines)-1] {
		var row map[string]json.RawMessage
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatal(err)
		}
		for _, f := range optInFields {
			if _, ok := row[f]; ok {
				t.Errorf("row carries %q without selecting it: %s", f, line)
			}
		}
	}
}
