package scenario

import (
	"fmt"
	"os"
	"testing"

	"pegflow/internal/core"
)

// warmCellAllocs is the allocation count of one warm cell: every cache the
// cell reads (plan master, member DAX, chunk seconds, the world's key for
// the site set) filled by a first run.
func warmCellAllocs(t *testing.T, c *Compiled, cell Cell) float64 {
	t.Helper()
	run := func() {
		if _, err := c.runCell(cell); err != nil {
			t.Fatal(err)
		}
	}
	run()
	return testing.AllocsPerRun(5, run)
}

func compileSource(t *testing.T, name string, src []byte) *Compiled {
	t.Helper()
	doc, err := Parse(name, src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(doc)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestAllocsSingleSiteCell pins what merging the run paths may cost (run by
// CI as `go test -run 'TestAllocs'`). A warm cell of the paper grid
// allocates no more than it did on the deleted core.Experiment path — the
// budgets are that path's counts at its last commit — and a warm aggregated
// cell on a site that evicts nothing allocates the same at n = 2,000 and
// n = 20,000: placement, clone, patch, pool check and run keep no per-job
// temporary and grow no slice by doubling.
func TestAllocsSingleSiteCell(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	core.ResetPlanCache()
	defer core.ResetPlanCache()
	src, err := os.ReadFile("../../examples/scenarios/paper.json")
	if err != nil {
		t.Fatal(err)
	}
	c := compileSource(t, "paper.json", src)
	// Grid order: sandhills then osg, each at n = 10, 100, 300, 500.
	budgets := []float64{129, 244, 461, 463, 131, 248, 471, 674}
	if len(c.Cells) != len(budgets) {
		t.Fatalf("paper.json has %d cells, want %d", len(c.Cells), len(budgets))
	}
	for i, cell := range c.Cells {
		got := warmCellAllocs(t, c, cell)
		t.Logf("%s n=%d: %v allocations (budget %v)", cell.SiteSet[0], cell.N, got, budgets[i])
		if got > budgets[i] {
			t.Errorf("%s n=%d: a warm cell allocates %v times, the single-site path it replaced %v",
				cell.SiteSet[0], cell.N, got, budgets[i])
		}
	}

	aggregated := func(n int) float64 {
		c := compileSource(t, "big.json", []byte(fmt.Sprintf(`{
  "version": 1, "name": "big",
  "sites": [{"preset": "sandhills", "slots": 300}],
  "workload": {"preset": "paper", "n": [%d], "seeds": [7]},
  "outputs": {"aggregate": true, "percentiles": [50, 99]}
}`, n)))
		return warmCellAllocs(t, c, c.Cells[0])
	}
	small, large := aggregated(2000), aggregated(20000)
	t.Logf("warm aggregated cell: %v allocations at n=2000, %v at n=20000", small, large)
	if small != large {
		t.Errorf("warm aggregated cell allocations grow with n: %v at n=2000, %v at n=20000", small, large)
	}
}

// serveShape is the benchmark's serve document family (bench/docs.go): two
// preset sites swept separately over two chunk counts, six fields and three
// percentiles — the shape whose every request compiles, hit or miss.
const serveShape = `{
  "version": 1, "name": "serve-shape",
  "sites": [{"preset": "sandhills", "slots": 64}, {"preset": "osg", "slots": 128}],
  "site_sets": [["sandhills"], ["osg"]],
  "workload": {"params": {"num_clusters": 4000, "max_cluster_size": 200, "size_exponent": 0.5, "mean_read_len": 1000},
    "n": [64, 256], "seeds": [42]},
  "outputs": {"fields": ["makespan_s", "jobs", "attempts", "retries", "evictions", "success"], "percentiles": [50, 90, 99]}
}`

// TestAllocsCompile: a result-cache hit compiles its document and simulates
// nothing, so whatever a simulated cell needs computed once per document —
// workflow.World.Key of its site set — must be computed by the first such
// cell, not by Compile, which only builds the world. The budget is Compile's
// count before the run paths merged.
func TestAllocsCompile(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	doc, err := Parse("serve.json", []byte(serveShape))
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(20, func() {
		if _, err := Compile(doc); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Compile of a serve shape: %v allocations", got)
	const budget = 75
	if got > budget {
		t.Errorf("Compile allocates %v times, %v before the merge", got, budget)
	}
}
