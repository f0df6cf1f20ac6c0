package core

import "testing"

func TestMonteCarloGrid(t *testing.T) {
	sw, err := MonteCarloSweep(canonicalSeed, 5, SweepOptions{NValues: []int{10, 300}})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Serial.Runs != 5 {
		t.Errorf("serial runs = %d", sw.Serial.Runs)
	}
	// Serial time is deterministic given the workload, so the spread is
	// tiny relative to the mean.
	if sw.Serial.CV() > 0.01 {
		t.Errorf("serial CV = %v, want ~0", sw.Serial.CV())
	}
	for _, p := range Platforms {
		for _, n := range []int{10, 300} {
			c := sw.Cells[p][n]
			if c.Runs != 5 {
				t.Errorf("%s n=%d runs = %d", p, n, c.Runs)
			}
			if c.Min > c.Median || c.Median > c.Max {
				t.Errorf("%s n=%d order stats broken: %+v", p, n, c)
			}
			if c.Mean <= 0 {
				t.Errorf("%s n=%d mean = %v", p, n, c.Mean)
			}
		}
	}
	// The paper's variability claim: OSG spreads wider than Sandhills.
	if sw.Cells["osg"][300].CV() <= sw.Cells["sandhills"][300].CV() {
		t.Errorf("OSG CV %v not above Sandhills CV %v (opportunistic variability)",
			sw.Cells["osg"][300].CV(), sw.Cells["sandhills"][300].CV())
	}
	// Sandhills mean plateau stays below OSG mean.
	if sw.Cells["sandhills"][300].Mean >= sw.Cells["osg"][300].Mean {
		t.Errorf("mean sandhills %v not below mean OSG %v",
			sw.Cells["sandhills"][300].Mean, sw.Cells["osg"][300].Mean)
	}
	// Optimal-n counts cover all runs.
	for _, p := range Platforms {
		total := 0
		for _, c := range sw.OptimalNCounts[p] {
			total += c
		}
		if total != 5 {
			t.Errorf("%s optimal-n counts sum to %d", p, total)
		}
	}
}

func TestMonteCarloOptimumMostlyAt300(t *testing.T) {
	sw, err := MonteCarloSweep(canonicalSeed, 5, SweepOptions{Platforms: []string{"sandhills"}})
	if err != nil {
		t.Fatal(err)
	}
	best, bestCount := 0, -1
	for n, c := range sw.OptimalNCounts["sandhills"] {
		if c > bestCount {
			best, bestCount = n, c
		}
	}
	if best != 300 {
		t.Errorf("modal optimum = %d over 5 seeds, want 300 (counts %v)",
			best, sw.OptimalNCounts["sandhills"])
	}
}

func TestMonteCarloValidation(t *testing.T) {
	if _, err := MonteCarloSweep(1, 0, SweepOptions{}); err == nil {
		t.Error("zero runs accepted")
	}
	if _, err := MonteCarloSweep(1, 1, SweepOptions{Platforms: []string{"mainframe"}, NValues: []int{10}}); err == nil {
		t.Error("unknown platform accepted")
	}
}
