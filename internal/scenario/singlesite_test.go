package scenario

import (
	"encoding/json"
	"strconv"
	"testing"

	"pegflow/internal/engine"
	"pegflow/internal/ensemble"
	"pegflow/internal/planner"
	"pegflow/internal/sim/platform"
	"pegflow/internal/stats"
	"pegflow/internal/workflow"
)

// singleSiteGrid is every kind of cell the deleted single-site pipeline
// used to run: the three presets at their default slots × three chunk
// counts × three seeds × clustering off, by count and by target runtime —
// 81 cells, every field and three percentiles.
const singleSiteGrid = `{
  "version": 1, "name": "single-site-grid",
  "sites": [{"preset": "sandhills"}, {"preset": "osg"}, {"preset": "cloud"}],
  "site_sets": [["sandhills"], ["osg"], ["cloud"]],
  "workload": {"preset": "paper", "n": [7, 50, 333], "seeds": [3, 42, 1009]},
  "policies": {"cluster": [{}, {"max_tasks": 4}, {"target_seconds": 1800}]},
  "outputs": {"percentiles": [50, 90, 99]}
}`

// referenceRun is the pipeline single-site cells had to themselves before
// they became ensembles of one, kept here verbatim as the reference: the
// seed's own DAX, the paper's catalogs, the single-site planner, the
// clustering pass, one platform executor, a bare engine.
func referenceRun(t *testing.T, c *Compiled, cell Cell) *engine.Result {
	t.Helper()
	w := workflow.CustomWorkload(c.params, cell.Seed)
	cats, err := workflow.PaperCatalogs(w, 300, 600)
	if err != nil {
		t.Fatal(err)
	}
	abstract, err := workflow.BuildDAX(workflow.BuilderConfig{N: cell.N, Workload: w})
	if err != nil {
		t.Fatal(err)
	}
	site := cell.SiteSet[0]
	plan, err := planner.New(abstract, cats, planner.Options{Site: site})
	if err != nil {
		t.Fatal(err)
	}
	if plan, err = planner.Cluster(plan, cell.Cluster.options()); err != nil {
		t.Fatal(err)
	}
	var cfg platform.Config
	switch site {
	case "sandhills":
		cfg = platform.Sandhills(cell.Seed)
		cfg.Slots = 300
	case "osg":
		cfg = platform.OSG(cell.Seed)
		cfg.Slots = 600
	case "cloud":
		cfg = platform.Cloud(cell.Seed)
	}
	cfg.Seed = cell.Seed ^ (uint64(cell.N) * 0x9e3779b97f4a7c15)
	ex, err := platform.NewExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex.Reserve(plan.Graph().Len())
	res, err := engine.Run(plan, ex, engine.Options{RetryLimit: c.retries})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSingleSiteCellEqualsEngineRun: a cell of one workflow on one untouched
// preset reports, through the one run path — multi-site planner without
// stage-in, a pool of one site, the ensemble driver — exactly what the
// single-site planner, one executor and a bare engine.Run produce for it:
// every metric of every row, percentiles included.
func TestSingleSiteCellEqualsEngineRun(t *testing.T) {
	c := compileSource(t, "grid.json", []byte(singleSiteGrid))
	if len(c.Cells) != 81 {
		t.Fatalf("grid has %d cells, want 81", len(c.Cells))
	}
	lines, err := c.Run(RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, cell := range c.Cells {
		if ensemble.StageIn(cell.SiteSet) {
			t.Fatalf("cell %d plans with stage-in: not a cell the single-site pipeline ran", i)
		}
		var row map[string]any
		if err := json.Unmarshal(lines[1+i], &row); err != nil {
			t.Fatal(err)
		}
		res := referenceRun(t, c, cell)
		sum := stats.Summarize(res.Log, res.Makespan)
		want := map[string]any{
			"makespan_s":               sum.WallTime,
			"mean_workflow_makespan_s": sum.WallTime,
			"cumulative_kickstart_s":   sum.CumulativeKickstart,
			"jobs":                     float64(sum.Jobs),
			"attempts":                 float64(sum.Attempts),
			"retries":                  float64(res.Retries),
			"evictions":                float64(res.Evictions),
			"failovers":                0.0,
			"backoffs":                 0.0,
			"outages":                  0.0,
			"downtime_s":               0.0,
			"success":                  res.Success,
		}
		var kick, wait []float64
		for _, r := range res.Log.Successes() {
			kick, wait = append(kick, r.Exec()), append(wait, r.Waiting())
		}
		ps := c.Doc.Outputs.Percentiles
		kp, wp := stats.PercentilesOf(kick, ps...), stats.PercentilesOf(wait, ps...)
		for k, p := range ps {
			suffix := strconv.FormatFloat(p, 'g', -1, 64)
			want["kickstart_p"+suffix], want["waiting_p"+suffix] = kp[k], wp[k]
		}
		for field, w := range want {
			if got, ok := row[field]; !ok || got != w {
				t.Errorf("cell %d (%s n=%d seed=%d cluster=%+v): %s = %v, reference pipeline %v",
					i, cell.SiteSet[0], cell.N, cell.Seed, cell.Cluster, field, got, w)
			}
		}
	}
}
