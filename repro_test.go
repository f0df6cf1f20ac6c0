// Top-level acceptance test: the paper's headline findings, end to end.
// This is the claim-by-claim gate a reviewer would run first; the detailed
// bands live in internal/core's tests, README.md's opening list states the
// findings, and its Quickstart (`go run ./cmd/experiments`) regenerates
// the figures behind them.
package pegflow_test

import (
	"testing"

	"pegflow/internal/core"
	"pegflow/internal/stats"
)

func TestPaperHeadlineFindings(t *testing.T) {
	all, err := core.DefaultExperiment(42).RunAll()
	if err != nil {
		t.Fatal(err)
	}

	serial := all.Serial.WallTime()
	if h := serial / 3600; h < 95 || h > 105 {
		t.Errorf("serial = %.1f h, paper: 100 h", h)
	}

	// ">95% reduction" (paper abstract).
	if red := stats.Reduction(serial, all.BestWorkflowWallTime()); red < 0.95 {
		t.Errorf("reduction = %.1f%%, paper: >95%%", 100*red)
	}

	// "Sandhills resulted in better running time" (paper abstract).
	for _, n := range core.PaperNValues {
		s := all.Runs["sandhills"][n].WallTime()
		o := all.Runs["osg"][n].WallTime()
		if o <= s {
			t.Errorf("n=%d: OSG %.0f s ≤ Sandhills %.0f s", n, o, s)
		}
	}

	// "the selection of 300 clusters of transcripts gives the optimum
	// performance" (paper abstract).
	sand := all.Runs["sandhills"]
	for _, n := range []int{10, 100, 500} {
		if sand[n].WallTime() <= sand[300].WallTime() {
			t.Errorf("n=%d (%.0f s) beats n=300 (%.0f s)",
				n, sand[n].WallTime(), sand[300].WallTime())
		}
	}

	// "we encountered no failures ... on Sandhills"; failures/retries
	// "observed on OSG".
	osgEvictions := 0
	for _, n := range core.PaperNValues {
		if ev := all.Runs["sandhills"][n].Result.Evictions; ev != 0 {
			t.Errorf("sandhills n=%d: %d evictions", n, ev)
		}
		osgEvictions += all.Runs["osg"][n].Result.Evictions
	}
	if osgEvictions == 0 {
		t.Error("no OSG evictions anywhere: opportunistic model inert")
	}
}
