package main

import (
	"testing"

	"pegflow/internal/workflow"
)

// The paper's findings as bands over the figure documents' rows: each
// test holds a qualitative claim of the evaluation to every cell it
// covers, rather than pinning the bytes of one run.

// TestBandSandhillsFasterEverySeed: over seeds.json's ten seeds, the
// dedicated campus cluster finishes before OSG at every n (paper §VI.A,
// Fig. 4) — not only on average.
func TestBandSandhillsFasterEverySeed(t *testing.T) {
	c, rows, err := runFigure("seeds.json", canonicalSeed)
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		n    int
		seed uint64
	}
	wall := map[string]map[key]float64{}
	for _, r := range rows {
		if wall[r.site()] == nil {
			wall[r.site()] = map[key]float64{}
		}
		wall[r.site()][key{r.N, r.Seed}] = r.Makespan
	}
	for _, n := range c.Doc.Workload.N {
		for _, seed := range c.Doc.Workload.Seeds {
			k := key{n, seed}
			sh, okS := wall["sandhills"][k]
			osg, okO := wall["osg"][k]
			if !okS || !okO {
				t.Fatalf("n=%d seed %d: missing a sandhills or osg cell", n, seed)
			}
			if sh >= osg {
				t.Errorf("n=%d seed %d: sandhills wall %.0f s not below osg %.0f s", n, seed, sh, osg)
			}
		}
	}
}

// TestBandFig5PhaseShape: paper-grid.json's per-transformation tables at
// every n (Fig. 5) — Sandhills has the software installed and spends no
// time installing; every OSG task downloads and installs it for a few
// hundred seconds up to twenty minutes; OSG's CAP3 tasks wait longer
// than Sandhills'; and the CAP3 kickstart time falls as the data is cut
// into more chunks, on both platforms.
func TestBandFig5PhaseShape(t *testing.T) {
	c, rows, err := runFigure("paper-grid.json", canonicalSeed)
	if err != nil {
		t.Fatal(err)
	}
	prevKick := map[string]float64{}
	for _, n := range c.Doc.Workload.N {
		sh, osg := cellAt(t, rows, "sandhills", n), cellAt(t, rows, "osg", n)
		for _, ts := range sh.PerTransformation[0] {
			if ts.MeanSetup != 0 {
				t.Errorf("sandhills n=%d %s: mean install %.1f s, want 0", n, ts.Transformation, ts.MeanSetup)
			}
		}
		for _, ts := range osg.PerTransformation[0] {
			if ts.MeanSetup < 200 || ts.MeanSetup > 1200 {
				t.Errorf("osg n=%d %s: mean install %.1f s, want within [200, 1200] s", n, ts.Transformation, ts.MeanSetup)
			}
		}
		shCap3, osgCap3 := sh.task(workflow.TrRunCAP3), osg.task(workflow.TrRunCAP3)
		if shCap3.Count == 0 || osgCap3.Count == 0 {
			t.Fatalf("n=%d: no run_cap3 row", n)
		}
		if osgCap3.MeanWaiting <= shCap3.MeanWaiting {
			t.Errorf("n=%d: osg run_cap3 mean waiting %.1f s not above sandhills' %.1f s",
				n, osgCap3.MeanWaiting, shCap3.MeanWaiting)
		}
		for site, ts := range map[string]float64{"sandhills": shCap3.MeanKickstart, "osg": osgCap3.MeanKickstart} {
			if prev, ok := prevKick[site]; ok && ts >= prev {
				t.Errorf("%s n=%d: run_cap3 mean kickstart %.1f s not below the previous n's %.1f s", site, n, ts, prev)
			}
			prevKick[site] = ts
		}
	}
}
