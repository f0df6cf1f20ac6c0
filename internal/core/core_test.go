package core

import (
	"testing"

	"pegflow/internal/stats"
	"pegflow/internal/workflow"
)

// canonicalSeed is the seed used for the headline reproduction (README.md's
// opening list of findings; `go run ./cmd/experiments -seed 42` regenerates
// the figures). The shape assertions below are the paper's findings;
// they hold for this seed and, qualitatively, for most seeds — the paper
// itself notes run-to-run variability on opportunistic resources (§VI.A).
const canonicalSeed = 42

func runAll(t *testing.T) *AllResults {
	t.Helper()
	all, err := DefaultExperiment(canonicalSeed).RunAll()
	if err != nil {
		t.Fatal(err)
	}
	return all
}

func TestSerialBaselineNearHundredHours(t *testing.T) {
	e := DefaultExperiment(canonicalSeed)
	ser, err := e.RunSerial()
	if err != nil {
		t.Fatal(err)
	}
	h := ser.WallTime() / 3600
	if h < 95 || h > 105 {
		t.Errorf("serial wall time = %.1f h, want ≈100 h (paper §V.B)", h)
	}
	if !ser.Result.Success {
		t.Error("serial run failed")
	}
}

func TestFig4SandhillsN10NearPaper(t *testing.T) {
	e := DefaultExperiment(canonicalSeed)
	r, err := e.RunWorkflow("sandhills", 10)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 41,593 s. Accept ±15%.
	if w := r.WallTime(); w < 35354 || w > 47832 {
		t.Errorf("sandhills n=10 wall = %.0f s, want ≈41,593 s ±15%%", w)
	}
}

func TestFig4SandhillsPlateauAndOptimum(t *testing.T) {
	all := runAll(t)
	sand := all.Runs["sandhills"]
	// Paper: n ∈ {100,300,500} all land "around 10,000 seconds".
	for _, n := range []int{100, 300, 500} {
		w := sand[n].WallTime()
		if w < 8000 || w > 16000 {
			t.Errorf("sandhills n=%d wall = %.0f s, want ≈10,000 s band", n, w)
		}
	}
	// Paper: 300 clusters is the optimum.
	w300 := sand[300].WallTime()
	for _, n := range []int{10, 100, 500} {
		if sand[n].WallTime() <= w300 {
			t.Errorf("sandhills n=%d (%.0f s) not above optimum n=300 (%.0f s)",
				n, sand[n].WallTime(), w300)
		}
	}
	// Paper: ≥100 clusters improves ≈80% over 10 clusters (we measure
	// ≈70-75%; accept ≥65%).
	imp := stats.Reduction(sand[10].WallTime(), sand[100].WallTime())
	if imp < 0.65 {
		t.Errorf("n=10→100 improvement = %.0f%%, want ≥65%%", imp*100)
	}
}

func TestFig4WorkflowVsSerialReduction(t *testing.T) {
	all := runAll(t)
	// Paper: Pegasus implementation reduces running time by more than
	// 95% on both platforms (average ≈3 h vs 100 h).
	serial := all.Serial.WallTime()
	for _, p := range Platforms {
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
	for _, p := range Platforms {
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
	for _, p := range Platforms {
		for _, n := range PaperNValues {
			if !all.Runs[p][n].Result.Success {
				t.Errorf("%s n=%d failed", p, n)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := DefaultExperiment(canonicalSeed).RunWorkflow("osg", 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DefaultExperiment(canonicalSeed).RunWorkflow("osg", 100)
	if err != nil {
		t.Fatal(err)
	}
	if a.WallTime() != b.WallTime() {
		t.Errorf("same seed differs: %.3f vs %.3f", a.WallTime(), b.WallTime())
	}
	if a.Result.Log.Len() != b.Result.Log.Len() {
		t.Errorf("log lengths differ: %d vs %d", a.Result.Log.Len(), b.Result.Log.Len())
	}
}

func TestUnknownPlatformRejected(t *testing.T) {
	e := DefaultExperiment(1)
	if _, err := e.RunWorkflow("ec2", 10); err == nil {
		t.Error("unknown platform accepted")
	}
}

func TestSummaryConsistency(t *testing.T) {
	e := DefaultExperiment(canonicalSeed)
	r, err := e.RunWorkflow("sandhills", 100)
	if err != nil {
		t.Fatal(err)
	}
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

func findTask(rows []stats.TaskStats, name string) *stats.TaskStats {
	for i := range rows {
		if rows[i].Transformation == name {
			return &rows[i]
		}
	}
	return nil
}
