package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"testing"

	"pegflow/examples/scenarios/figures"
	"pegflow/internal/dax"
	"pegflow/internal/engine"
	"pegflow/internal/planner"
	"pegflow/internal/scenario"
	"pegflow/internal/sim/platform"
	"pegflow/internal/stats"
	"pegflow/internal/workflow"
)

// canonicalSeed is the seed used for the headline reproduction (README.md's
// opening list of findings; `go run ./cmd/experiments -seed 42` regenerates
// the figures). The shape assertions below are the paper's findings;
// they hold for this seed and, qualitatively, for most seeds — the paper
// itself notes run-to-run variability on opportunistic resources (§VI.A).
const canonicalSeed = 42

// platforms are the two execution platforms compared in the paper.
var platforms = []string{"sandhills", "osg"}

func runAll(t *testing.T) *AllResults {
	t.Helper()
	all, err := DefaultExperiment(canonicalSeed).RunAll()
	if err != nil {
		t.Fatal(err)
	}
	return all
}

// serialOracle is the run the serial baseline's closed form replaced, kept
// as its reference: the one-job DAX of the serial blast2cap3 built by hand
// (the cost model's SerialSeconds as its "%.3f" runtime profile), planned on
// Sandhills and run through a bare engine on one slot of reference speed
// with no noise.
func serialOracle(t *testing.T, seed uint64) stats.Summary {
	t.Helper()
	w := workflow.PaperWorkload(seed)
	abstract := dax.New("blast2cap3-serial")
	j := abstract.NewJob("blast2cap3_serial", workflow.TrSerial).
		AddInput("transcripts.fasta", w.TranscriptBytes).
		AddInput("alignments.out", w.AlignmentBytes).
		AddOutput("final_assembly.fasta", w.TranscriptBytes/2)
	j.Profiles = map[string]string{
		"pegasus::runtime": strconv.FormatFloat(workflow.DefaultCostModel().SerialSeconds(w), 'f', 3, 64),
	}
	world, err := workflow.NewWorld(workflow.PaperSites(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planner.New(abstract, world.Catalogs(), planner.Options{Site: "sandhills"})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := platform.NewExecutor(platform.Config{Name: "sandhills", Slots: 1, SpeedFactor: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(plan, ex, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("seed %d: serial oracle run failed", seed)
	}
	return stats.Summarize(res.Log, res.Makespan)
}

// TestSerialBaselineNearHundredHours: RunAll's serial baseline is the
// one-job run it stands for, bit for bit, at several seeds — a degenerate
// limit of the simulator, one job on one noiseless slot, whose makespan is
// its runtime — and lands in the paper's band (§V.B: 100 hours).
func TestSerialBaselineNearHundredHours(t *testing.T) {
	for _, seed := range []uint64{0, 1, 7, canonicalSeed, 299} {
		all, err := DefaultExperiment(seed).RunAll()
		if err != nil {
			t.Fatal(err)
		}
		ser := all.Serial
		if want := serialOracle(t, seed); ser.Summary != want {
			t.Errorf("seed %d: serial summary %+v, one-job run %+v", seed, ser.Summary, want)
		}
		if ser.Platform != "serial" || ser.N != 0 || ser.Result != nil || ser.PerTask != nil {
			t.Errorf("seed %d: serial result %s n=%d, result %v, per-task %v; want serial n=0 and neither",
				seed, ser.Platform, ser.N, ser.Result, ser.PerTask)
		}
		if h := ser.WallTime() / 3600; h < 95 || h > 105 {
			t.Errorf("seed %d: serial wall time = %.1f h, want ≈100 h (paper §V.B)", seed, h)
		}
	}
}

func TestFig4SandhillsN10NearPaper(t *testing.T) {
	r := runAll(t).Runs["sandhills"][10]
	// Paper: 41,593 s. Accept ±15%.
	if w := r.WallTime(); w < 35354 || w > 47832 {
		t.Errorf("sandhills n=10 wall = %.0f s, want ≈41,593 s ±15%%", w)
	}
}

// TestFig4PlateauAndOptimum: the paper's Fig. 4 bands on both platforms.
// At seed 42, OSG's n = 300 takes 13,873 s against 50,820 / 15,104 /
// 18,556 s at n = 10 / 100 / 500.
func TestFig4PlateauAndOptimum(t *testing.T) {
	all := runAll(t)
	// Paper: n ∈ {100,300,500} all land "around 10,000 seconds" on Sandhills.
	for _, n := range []int{100, 300, 500} {
		w := all.Runs["sandhills"][n].WallTime()
		if w < 8000 || w > 16000 {
			t.Errorf("sandhills n=%d wall = %.0f s, want ≈10,000 s band", n, w)
		}
	}
	for _, p := range platforms {
		runs := all.Runs[p]
		// Paper: 300 clusters is the optimum.
		w300 := runs[300].WallTime()
		for _, n := range []int{10, 100, 500} {
			if runs[n].WallTime() <= w300 {
				t.Errorf("%s n=%d (%.0f s) not above optimum n=300 (%.0f s)",
					p, n, runs[n].WallTime(), w300)
			}
		}
		// Paper: ≥100 clusters improves ≈80% over 10 clusters (we measure
		// ≈70-75%; accept ≥65%).
		if imp := stats.Reduction(runs[10].WallTime(), runs[100].WallTime()); imp < 0.65 {
			t.Errorf("%s n=10→100 improvement = %.0f%%, want ≥65%%", p, imp*100)
		}
	}
}

func TestFig4WorkflowVsSerialReduction(t *testing.T) {
	all := runAll(t)
	// Paper: Pegasus implementation reduces running time by more than
	// 95% on both platforms (average ≈3 h vs 100 h).
	serial := all.Serial.WallTime()
	for _, p := range platforms {
		for _, n := range []int{100, 300, 500} {
			red := stats.Reduction(serial, all.Runs[p][n].WallTime())
			if red < 0.90 {
				t.Errorf("%s n=%d reduction = %.1f%%, want >90%%", p, n, red*100)
			}
		}
	}
	best := stats.Reduction(serial, all.BestWorkflowWallTime())
	if best < 0.95 {
		t.Errorf("best reduction = %.1f%%, want >95%%", best*100)
	}
}

func TestFig4OSGSlowerThanSandhills(t *testing.T) {
	all := runAll(t)
	// Paper: "Although OSG provides more computational resources than
	// Sandhills, our workflow experimental runs have better running time
	// on Sandhills" — at every n for the canonical seed.
	for _, n := range PaperNValues {
		s, o := all.Runs["sandhills"][n].WallTime(), all.Runs["osg"][n].WallTime()
		if o <= s {
			t.Errorf("n=%d: OSG (%.0f s) not above Sandhills (%.0f s)", n, o, s)
		}
	}
}

func TestFig5SandhillsNoInstallNegligibleWaiting(t *testing.T) {
	all := runAll(t)
	for _, n := range PaperNValues {
		r := all.Runs["sandhills"][n]
		for _, row := range r.PerTask {
			if row.MeanSetup != 0 {
				t.Errorf("n=%d %s: Sandhills download/install = %.1f s, want 0",
					n, row.Transformation, row.MeanSetup)
			}
		}
		// Waiting on Sandhills is "small and negligible" relative to the
		// workflow: mean run_cap3 waiting well under 10% of wall time.
		for _, row := range r.PerTask {
			if row.Transformation != workflow.TrRunCAP3 {
				continue
			}
			if row.MeanWaiting > 0.1*r.WallTime() {
				t.Errorf("n=%d: Sandhills mean cap3 waiting %.0f s vs wall %.0f s",
					n, row.MeanWaiting, r.WallTime())
			}
		}
	}
}

func TestFig5OSGInstallAndWaiting(t *testing.T) {
	all := runAll(t)
	for _, n := range PaperNValues {
		osgRun := all.Runs["osg"][n]
		sandRun := all.Runs["sandhills"][n]
		osgCap3 := findTask(osgRun.PerTask, workflow.TrRunCAP3)
		sandCap3 := findTask(sandRun.PerTask, workflow.TrRunCAP3)
		if osgCap3 == nil || sandCap3 == nil {
			t.Fatalf("n=%d: missing run_cap3 stats", n)
		}
		// Every OSG task pays download/install (paper: ≈minutes).
		if osgCap3.MeanSetup < 60 {
			t.Errorf("n=%d: OSG cap3 install = %.0f s, want ≥60 s", n, osgCap3.MeanSetup)
		}
		// OSG waiting far exceeds Sandhills waiting.
		if osgCap3.MeanWaiting <= sandCap3.MeanWaiting {
			t.Errorf("n=%d: OSG waiting %.0f ≤ Sandhills %.0f",
				n, osgCap3.MeanWaiting, sandCap3.MeanWaiting)
		}
	}
}

func TestFig5KickstartDecreasesWithN(t *testing.T) {
	all := runAll(t)
	// Paper: "The Kickstart Time value per task on Sandhills slowly
	// decreases when n increases."
	for _, p := range platforms {
		prev := -1.0
		for _, n := range PaperNValues {
			row := findTask(all.Runs[p][n].PerTask, workflow.TrRunCAP3)
			if row == nil {
				t.Fatalf("%s n=%d: no cap3 stats", p, n)
			}
			if prev > 0 && row.MeanKickstart >= prev {
				t.Errorf("%s: mean cap3 kickstart rose from %.0f to %.0f at n=%d",
					p, prev, row.MeanKickstart, n)
			}
			prev = row.MeanKickstart
		}
	}
}

func TestConclusionKickstartOnlyOSGFaster(t *testing.T) {
	all := runAll(t)
	// Paper §VII: "if comparing only the actual duration and running
	// time of tasks on both platforms, ignoring the Waiting Time and the
	// Download/Install Time, OSG gives significantly better results."
	for _, n := range []int{100, 300, 500} {
		osg := findTask(all.Runs["osg"][n].PerTask, workflow.TrRunCAP3)
		sand := findTask(all.Runs["sandhills"][n].PerTask, workflow.TrRunCAP3)
		if osg.MeanKickstart >= sand.MeanKickstart {
			t.Errorf("n=%d: OSG mean kickstart %.0f not below Sandhills %.0f",
				n, osg.MeanKickstart, sand.MeanKickstart)
		}
	}
}

func TestOSGFailuresObservedSandhillsNone(t *testing.T) {
	all := runAll(t)
	// Paper: "we encountered no failures when the workflow was executed
	// on Sandhills"; "failures and retries of the workflow were observed
	// on OSG".
	for _, n := range PaperNValues {
		if ev := all.Runs["sandhills"][n].Result.Evictions; ev != 0 {
			t.Errorf("sandhills n=%d: %d evictions, want 0", n, ev)
		}
	}
	totalOSG := 0
	for _, n := range PaperNValues {
		totalOSG += all.Runs["osg"][n].Result.Evictions
	}
	if totalOSG == 0 {
		t.Error("no OSG evictions across the whole grid; opportunistic model inert")
	}
	// All runs must nevertheless succeed (DAGMan retries recover).
	for _, p := range platforms {
		for _, n := range PaperNValues {
			if !all.Runs[p][n].Result.Success {
				t.Errorf("%s n=%d failed", p, n)
			}
		}
	}
}

// TestDeterminism: two RunAll calls at one seed give the same grid, cell
// for cell.
func TestDeterminism(t *testing.T) {
	a, err := DefaultExperiment(canonicalSeed).RunAll()
	if err != nil {
		t.Fatal(err)
	}
	b, err := DefaultExperiment(canonicalSeed).RunAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range platforms {
		for _, n := range PaperNValues {
			ra, rb := a.Runs[p][n], b.Runs[p][n]
			if ra.Summary != rb.Summary || !reflect.DeepEqual(ra.PerTask, rb.PerTask) {
				t.Errorf("%s n=%d: same seed differs: %+v vs %+v", p, n, ra.Summary, rb.Summary)
			}
			if ra.Result.Log.Len() != rb.Result.Log.Len() {
				t.Errorf("%s n=%d: log lengths differ: %d vs %d", p, n, ra.Result.Log.Len(), rb.Result.Log.Len())
			}
		}
	}
}

func TestSummaryConsistency(t *testing.T) {
	r := runAll(t).Runs["sandhills"][100]
	// 100 cap3 + 5 fixed jobs.
	if r.Summary.Jobs != 105 {
		t.Errorf("Jobs = %d, want 105", r.Summary.Jobs)
	}
	if r.Summary.WallTime != r.Result.Makespan {
		t.Error("summary wall time != engine makespan")
	}
	// Cumulative kickstart must be within the workflow's serial work.
	if r.Summary.CumulativeKickstart <= 0 {
		t.Error("no cumulative kickstart recorded")
	}
}

// TestRunAllParallelSerialEquivalence: RunAll is a view of paper-grid.json.
// The document's NDJSON rows are byte-identical at one worker and at eight,
// and every row carries the wall time, retries, evictions and
// per-transformation tables of RunAll's cell.
func TestRunAllParallelSerialEquivalence(t *testing.T) {
	c, err := figures.Load("paper-grid.json", canonicalSeed)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) [][]byte {
		lines, err := c.Run(scenario.RunOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return lines
	}
	serial, parallel := run(1), run(8)
	if !bytes.Equal(bytes.Join(serial, []byte("\n")), bytes.Join(parallel, []byte("\n"))) {
		t.Fatal("paper-grid.json rows differ between 1 and 8 workers")
	}
	all := runAll(t)
	for i, cell := range c.Cells {
		var row struct {
			Makespan          float64             `json:"makespan_s"`
			Retries           int                 `json:"retries"`
			Evictions         int                 `json:"evictions"`
			PerTransformation [][]stats.TaskStats `json:"per_transformation"`
		}
		if err := json.Unmarshal(serial[i+1], &row); err != nil {
			t.Fatal(err)
		}
		r := all.Runs[cell.SiteSet[0]][cell.N]
		if row.Makespan != r.WallTime() || row.Retries != r.Result.Retries || row.Evictions != r.Result.Evictions ||
			!reflect.DeepEqual(row.PerTransformation, [][]stats.TaskStats{r.PerTask}) {
			t.Errorf("%s n=%d: document row %.3f s, %d retries, %d evictions; RunAll %.3f s, %d, %d",
				cell.SiteSet[0], cell.N, row.Makespan, row.Retries, row.Evictions,
				r.WallTime(), r.Result.Retries, r.Result.Evictions)
		}
	}
}

func findTask(rows []stats.TaskStats, name string) *stats.TaskStats {
	for i := range rows {
		if rows[i].Transformation == name {
			return &rows[i]
		}
	}
	return nil
}
