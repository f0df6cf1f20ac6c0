package scenario

import (
	"fmt"
	"os"
	"runtime/debug"
	"testing"

	"pegflow/internal/core"
)

// warmCellAllocs is the allocation count of one warm cell: every cache the
// cell reads (plan master, member DAX, chunk seconds, the world's key for
// the site set) filled by a first run. The collector is paused while it
// measures: a collection empties the free lists a warm cell reuses its
// storage from, and how many happen depends on GOGC, not on the cell.
func warmCellAllocs(t *testing.T, c *Compiled, cell Cell) float64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
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

// TestAllocsSingleSiteCell pins what a warm cell may cost (run by CI as `go
// test -run 'TestAllocs'`). A warm cell of the paper grid runs on the
// storage the cell before it released — executor, record arena, node-name
// table, plan slab — so it allocates a flat budget whatever its n: what
// remains is the row, the engine session and its log, and the header
// objects of the run. Measured at 63–73 across the grid; the budget is that
// top plus a tenth, and the n = 500 cell of a site may allocate no more than
// its n = 10 cell plus warmGrowthSlack, the log's doublings (the path these
// cells replaced allocated 129–674, growing with n). A warm aggregated cell
// on a site that evicts nothing allocates the same at n = 2,000 and
// n = 20,000: placement, clone, patch, pool check and run keep no per-job
// temporary and grow no slice by doubling.
func TestAllocsSingleSiteCell(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	const (
		warmCellBudget  = 80
		warmGrowthSlack = 12
	)
	core.ResetPlanCache()
	defer core.ResetPlanCache()
	src, err := os.ReadFile("../../examples/scenarios/paper.json")
	if err != nil {
		t.Fatal(err)
	}
	c := compileSource(t, "paper.json", src)
	// Grid order: sandhills then osg, each at n = 10, 100, 300, 500.
	if len(c.Cells) != 8 {
		t.Fatalf("paper.json has %d cells, want 8", len(c.Cells))
	}
	got := make([]float64, len(c.Cells))
	for i, cell := range c.Cells {
		got[i] = warmCellAllocs(t, c, cell)
		t.Logf("%s n=%d: %v allocations (budget %v)", cell.SiteSet[0], cell.N, got[i], warmCellBudget)
		if got[i] > warmCellBudget {
			t.Errorf("%s n=%d: a warm cell allocates %v times, budget %v",
				cell.SiteSet[0], cell.N, got[i], warmCellBudget)
		}
	}
	for _, site := range []int{0, 4} {
		if small, large := got[site], got[site+3]; large > small+warmGrowthSlack {
			t.Errorf("%s: a warm cell allocates %v times at n=500, %v at n=10: more than %d apart",
				c.Cells[site].SiteSet[0], large, small, warmGrowthSlack)
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

// TestAllocsParse: every request parses its document, hit or miss, and a
// valid one is decoded and checked once — the walk that finds source lines
// runs only for a document validation refuses. The budget is the count of
// the decode and the checks; with the walk on every call it was 469.
func TestAllocsParse(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	got := testing.AllocsPerRun(20, func() {
		if _, err := Parse("serve.json", []byte(serveShape)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Parse of a serve shape: %v allocations", got)
	const budget = 59
	if got > budget {
		t.Errorf("Parse allocates %v times, budget %v: is it walking positions of a valid document?", got, budget)
	}
}

// TestAllocsCompile: a result-cache hit compiles its document and simulates
// nothing, so whatever a simulated cell needs computed once per document —
// the world's catalogs and workflow.World.Key of a site set — must be
// computed by the first such cell, not by Compile, which only checks the
// sites and builds the grid. Building the catalogs eagerly cost 71.
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
	const budget = 14
	if got > budget {
		t.Errorf("Compile allocates %v times, budget %v: is it building catalogs?", got, budget)
	}
}
