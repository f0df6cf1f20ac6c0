package main

import (
	"math"
	"slices"
	"testing"

	"pegflow/examples/scenarios/figures"
	"pegflow/internal/planner"
	"pegflow/internal/workflow"
)

// TestMonteCarloGrid: the seed sweep over seeds.json summarizes every cell
// over every seed, and shows the paper's variability claim — OSG spreads
// wider than Sandhills, whose plateau stays below OSG's.
func TestMonteCarloGrid(t *testing.T) {
	sw, err := runSeedSweep(figures.CanonicalSeed)
	if err != nil {
		t.Fatal(err)
	}
	runs := len(sw.seeds)
	// The paper workload's cluster sizes do not depend on the seed, and the
	// seed moves nothing else the serial run reads, so the serial seconds
	// have the same bits at every seed of the sweep, and so does its row.
	want := workflow.PaperSerialSeconds(sw.seeds[0])
	for _, s := range sw.seeds {
		if got := workflow.PaperSerialSeconds(s); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("serial seconds at seed %d = %v, at seed %d = %v: want the same bits", s, got, sw.seeds[0], want)
		}
	}
	if s := sw.serial; s.min != want || s.max != want {
		t.Errorf("serial row %+v, want every seed at %v", s, want)
	}
	at300 := map[string]spread{}
	for _, c := range sw.cells {
		if w := c.walls; w.min > w.median || w.median > w.max || w.mean <= 0 {
			t.Errorf("%s n=%d: broken summary %+v", c.site, c.n, w)
		}
		if c.n == 300 {
			at300[c.site] = c.walls
		}
	}
	if len(sw.cells) != 8 {
		t.Errorf("%d cells, want 2 sites x 4 n", len(sw.cells))
	}
	osg, sh := at300["osg"], at300["sandhills"]
	if osg.cv() <= sh.cv() {
		t.Errorf("OSG CV %v not above Sandhills CV %v (opportunistic variability)", osg.cv(), sh.cv())
	}
	if sh.mean >= osg.mean {
		t.Errorf("mean sandhills %v not below mean OSG %v", sh.mean, osg.mean)
	}
	for _, site := range sw.sites {
		total := 0
		for _, c := range sw.optimal[site] {
			total += c
		}
		if total != runs {
			t.Errorf("%s optimal-n counts sum to %d, want %d", site, total, runs)
		}
	}
}

// TestMonteCarloOptimumMostlyAt300: over the seed sweep, Sandhills' modal
// optimum is the paper's n = 300.
func TestMonteCarloOptimumMostlyAt300(t *testing.T) {
	sw, err := runSeedSweep(figures.CanonicalSeed)
	if err != nil {
		t.Fatal(err)
	}
	best, bestCount := 0, -1
	for n, c := range sw.optimal["sandhills"] {
		if c > bestCount || (c == bestCount && n < best) {
			best, bestCount = n, c
		}
	}
	if best != 300 {
		t.Errorf("modal optimum = %d over %d seeds, want 300 (counts %v)",
			best, len(sw.seeds), sw.optimal["sandhills"])
	}
}

// TestDataAwareBeatsRoundRobin: on both ensemble documents, the data-aware
// policy beats round-robin's ensemble makespan at every seed.
func TestDataAwareBeatsRoundRobin(t *testing.T) {
	for _, fig := range ensembleFigures {
		c, rows, err := runFigure(fig.name, figures.CanonicalSeed)
		if err != nil {
			t.Fatal(err)
		}
		// One row per (seed, policy), seed-major.
		per := len(c.Doc.Policies.Site)
		for i, seed := range c.Doc.Workload.Seeds {
			makespan := map[string]float64{}
			for _, r := range rows[i*per : (i+1)*per] {
				makespan[r.Policy] = r.Makespan
			}
			if rr, da := makespan[planner.PolicyRoundRobin], makespan[planner.PolicyDataAware]; da == 0 || da >= rr {
				t.Errorf("%s seed %d: data-aware makespan %.0f s not better than round-robin %.0f s",
					fig.name, seed, da, rr)
			}
		}
	}
}

// TestFigureSeedShift: -seed N runs a document at its seeds shifted by
// N - 42, so the default runs it as checked in.
func TestFigureSeedShift(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		want []uint64
	}{
		{figures.CanonicalSeed, []uint64{42, 43, 44, 45, 46}},
		{7, []uint64{7, 8, 9, 10, 11}},
	} {
		c, _, err := runFigure("ensemble.json", tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(c.Doc.Workload.Seeds, tc.want) {
			t.Errorf("-seed %d runs seeds %v, want %v", tc.seed, c.Doc.Workload.Seeds, tc.want)
		}
	}
}
