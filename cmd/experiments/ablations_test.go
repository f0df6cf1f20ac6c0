package main

import (
	"math"
	"testing"

	"pegflow/internal/stats"
	"pegflow/internal/workflow"
)

// figureRows runs a figure document at the canonical seed.
func figureRows(t *testing.T, name string) []figureRow {
	t.Helper()
	_, rows, err := runFigure(name, canonicalSeed)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// cellAt is rowAt for a cell the test knows is there.
func cellAt(t *testing.T, rows []figureRow, site string, n int) figureRow {
	t.Helper()
	r, err := rowAt(rows, site, n)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// installSeconds is the download/install time a row's tasks spent in all.
func installSeconds(r figureRow) float64 {
	var s float64
	for _, ts := range r.PerTransformation[0] {
		s += ts.MeanSetup * float64(ts.Count)
	}
	return s
}

// TestVariantPreinstallOSGRemovesInstallTime: A1 — OSG with the stack
// preinstalled spends no time installing and beats paper-grid's OSG cell.
func TestVariantPreinstallOSGRemovesInstallTime(t *testing.T) {
	base := cellAt(t, figureRows(t, "paper-grid.json"), "osg", 300)
	pre := cellAt(t, figureRows(t, "a1-preinstalled.json"), "osg", 300)
	if base.task(workflow.TrRunCAP3).MeanSetup <= 0 {
		t.Error("baseline OSG has no install time")
	}
	if s := installSeconds(pre); s != 0 {
		t.Errorf("preinstalled OSG install time = %v s, want 0", s)
	}
	if pre.Makespan >= base.Makespan {
		t.Errorf("preinstalling did not help: %v vs %v", pre.Makespan, base.Makespan)
	}
}

// TestVariantDisablePreemptionStopsEvictions: A2 — over the documents'
// seeds, zeroing the hazard removes every eviction and, at n = 10 where
// reruns are expensive, the wall time they cost.
func TestVariantDisablePreemptionStopsEvictions(t *testing.T) {
	with, without := figureRows(t, "a2-evictions.json"), figureRows(t, "a2-no-evictions.json")
	if len(with) != 5 || len(without) != 5 {
		t.Fatalf("%d and %d cells, want one per seed (5)", len(with), len(without))
	}
	var withEv, withoutEv float64
	totalEv := 0
	for i := range with {
		if with[i].Seed != without[i].Seed {
			t.Fatalf("cell %d: seeds %d and %d", i, with[i].Seed, without[i].Seed)
		}
		if without[i].Evictions != 0 {
			t.Errorf("seed %d: evictions with hazard disabled: %d", without[i].Seed, without[i].Evictions)
		}
		withEv += with[i].Makespan
		withoutEv += without[i].Makespan
		totalEv += with[i].Evictions
	}
	if totalEv == 0 {
		t.Error("no evictions across 5 seeds at n=10; hazard inert")
	}
	if withoutEv >= withEv {
		t.Errorf("mean wall without evictions (%v) not below with (%v)", withoutEv/5, withEv/5)
	}
}

// TestA3Clustering pins ablation A3 — run_cap3 bundled 1, 4 and 16 to a
// grid job on Sandhills at n=500 — to the numbers the deleted
// abstract-level clustering gave for it.
func TestA3Clustering(t *testing.T) {
	rows := figureRows(t, "a3-clustering.json")
	wants := []struct {
		factor, gridJobs int
		wall, kickstart  float64
	}{
		{1, 505, 12477, 340709},
		{4, 130, 14214, 340263},
		{16, 37, 24170, 344319},
	}
	if len(rows) != len(wants) {
		t.Fatalf("%d cells, want %d", len(rows), len(wants))
	}
	for i, want := range wants {
		r := rows[i]
		if r.ClusterMaxTasks != want.factor || r.GridJobs != want.gridJobs ||
			math.Round(r.Makespan) != want.wall || math.Round(r.CumulativeKickstart) != want.kickstart {
			t.Errorf("cell %d: factor %d, %d grid jobs, wall %.0f s, cumulative kickstart %.0f s; want %d, %d, %.0f, %.0f",
				i, r.ClusterMaxTasks, r.GridJobs, r.Makespan, r.CumulativeKickstart,
				want.factor, want.gridJobs, want.wall, want.kickstart)
		}
		// Every payload task still reports its own kickstart record.
		if r.Jobs != 505 {
			t.Errorf("factor %d: %d task records, want 505", want.factor, r.Jobs)
		}
	}
}

// TestVariantSkewChangesPlateau: A4 — a flatter rank-size law means much
// more total work, so the n=300 wall time rises well above the paper
// workload's plateau.
func TestVariantSkewChangesPlateau(t *testing.T) {
	flat := figureRows(t, "a4-skew-0.25.json")[0]
	paper := figureRows(t, "a4-skew-0.5.json")[0]
	if flat.Makespan <= 1.5*paper.Makespan {
		t.Errorf("flat-skew wall %v not well above paper workload %v", flat.Makespan, paper.Makespan)
	}
	// The paper's law through params is the paper preset.
	if grid := cellAt(t, figureRows(t, "paper-grid.json"), "sandhills", 300); paper.Makespan != grid.Makespan {
		t.Errorf("exponent 0.5 wall %v, paper-grid's sandhills n=300 %v", paper.Makespan, grid.Makespan)
	}
}

// TestCloudPlatformFutureWork: the cloud has no install step and no
// preemption, so it beats OSG; provisioning latency and the virtualization
// tax keep it near (and here above) the dedicated campus allocation.
func TestCloudPlatformFutureWork(t *testing.T) {
	rows := figureRows(t, "cloud.json")
	cloud, osg := cellAt(t, rows, "cloud", 300), cellAt(t, rows, "osg", 300)
	if cloud.Makespan >= osg.Makespan {
		t.Errorf("cloud (%v) not below OSG (%v)", cloud.Makespan, osg.Makespan)
	}
	for _, n := range []int{10, 100, 300, 500} {
		r := cellAt(t, rows, "cloud", n)
		if r.Evictions != 0 {
			t.Errorf("cloud n=%d evictions = %d", n, r.Evictions)
		}
		for _, ts := range r.PerTransformation[0] {
			if ts.MeanSetup != 0 {
				t.Errorf("cloud n=%d install time for %s = %v", n, ts.Transformation, ts.MeanSetup)
			}
		}
	}
}

// TestClusteringCutsOSGMakespan: in the paper workload's fine-decomposition
// regime (cluster.json, n = 2000), where OSG's per-task overhead — heavy-
// tailed dispatch plus a download/install on every job — dominates the
// slot·seconds, runtime-aware clustering cuts the OSG makespan by at least
// 20%, while on Sandhills, whose overhead is small, the same pass moves
// the needle far less. That contrast is the paper's explanation of the
// platform gap, reproduced as a scheduling win.
func TestClusteringCutsOSGMakespan(t *testing.T) {
	rows := figureRows(t, "cluster.json")
	reduction := map[string]float64{}
	for _, site := range []string{"sandhills", "osg"} {
		var base, clustered figureRow
		for _, r := range rows {
			if r.site() != site {
				continue
			}
			switch {
			case r.ClusterMaxTasks == 0 && r.ClusterTarget == 0:
				base = r
			case r.ClusterTarget == 1800:
				clustered = r
			}
		}
		if base.N == 0 || clustered.N == 0 {
			t.Fatalf("%s: no unclustered or target-1800 cell", site)
		}
		red := stats.Reduction(base.Makespan, clustered.Makespan)
		t.Logf("%s n=%d: unclustered %.0f s, clustered %.0f s (%.1f%% reduction)",
			site, base.N, base.Makespan, clustered.Makespan, 100*red)
		reduction[site] = red

		// Every task still runs once: the clustered run completes as many
		// tasks of each transformation as the unclustered one.
		for i, ts := range base.PerTransformation[0] {
			if got := clustered.PerTransformation[0][i]; got.Transformation != ts.Transformation || got.Count != ts.Count {
				t.Errorf("%s: clustered run completed %d %s tasks, unclustered %d %s",
					site, got.Count, got.Transformation, ts.Count, ts.Transformation)
			}
		}
		if clustered.GridJobs >= base.GridJobs {
			t.Errorf("%s: %d grid jobs clustered, %d unclustered", site, clustered.GridJobs, base.GridJobs)
		}
		// The mechanism on OSG: composites stage the stack once for all
		// their members, so the install time per task collapses.
		if site == "osg" && installSeconds(clustered) >= installSeconds(base)/2 {
			t.Errorf("cumulative install time %.0f s not amortized vs baseline %.0f s",
				installSeconds(clustered), installSeconds(base))
		}
	}
	if reduction["osg"] < 0.20 {
		t.Errorf("clustering cut OSG makespan by %.1f%%, want >= 20%%", 100*reduction["osg"])
	}
	if reduction["sandhills"] >= reduction["osg"] {
		t.Errorf("sandhills gained %.1f%%, osg %.1f%%; clustering should pay off most where overhead dominates",
			100*reduction["sandhills"], 100*reduction["osg"])
	}
}
