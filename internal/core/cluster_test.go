package core

import (
	"bytes"
	"testing"

	"pegflow/internal/planner"
	"pegflow/internal/stats"
)

// The acceptance claim of the clustering tentpole: in the paper workload's
// fine-decomposition regime, where OSG's per-task overhead (heavy-tailed
// dispatch plus a download/install on every job) dominates the
// slot·seconds, runtime-aware clustering cuts the simulated OSG makespan
// by at least 20% — while on Sandhills, whose overhead is small, the same
// pass moves the needle far less. That contrast is the paper's explanation
// of the platform gap, reproduced as a scheduling win.
func TestClusteringCutsOSGMakespan(t *testing.T) {
	const n = DefaultClusterSweepN
	copts := planner.ClusterOptions{TargetJobSeconds: 1800}
	e := DefaultExperiment(42)

	base, err := e.RunWorkflow("osg", n)
	if err != nil {
		t.Fatal(err)
	}
	clustered, err := e.RunClustered("osg", n, copts)
	if err != nil {
		t.Fatal(err)
	}
	if !base.Result.Success || !clustered.Result.Success {
		t.Fatal("runs incomplete")
	}
	red := stats.Reduction(base.WallTime(), clustered.WallTime())
	t.Logf("osg n=%d: unclustered %.0f s, clustered %.0f s (%.1f%% reduction)",
		n, base.WallTime(), clustered.WallTime(), 100*red)
	if red < 0.20 {
		t.Errorf("clustering cut OSG makespan by %.1f%%, want >= 20%%", 100*red)
	}

	// Every task still runs exactly once: the clustered log holds one
	// successful record per original task.
	baseTasks := make(map[string]bool)
	for _, r := range base.Result.Log.Successes() {
		baseTasks[r.JobID] = true
	}
	clTasks := make(map[string]bool)
	for _, r := range clustered.Result.Log.Successes() {
		if clTasks[r.JobID] {
			t.Errorf("task %s succeeded twice in the clustered run", r.JobID)
		}
		clTasks[r.JobID] = true
	}
	if len(clTasks) != len(baseTasks) {
		t.Errorf("clustered run completed %d tasks, unclustered %d", len(clTasks), len(baseTasks))
	}

	// The mechanism: the mean install time per task collapses, because
	// composites stage the stack once for all members.
	var baseSetup, clSetup float64
	for _, ts := range base.PerTask {
		baseSetup += ts.MeanSetup * float64(ts.Count)
	}
	for _, ts := range clustered.PerTask {
		clSetup += ts.MeanSetup * float64(ts.Count)
	}
	if clSetup >= baseSetup/2 {
		t.Errorf("cumulative install time %.0f s not amortized vs baseline %.0f s", clSetup, baseSetup)
	}

	// Sandhills, with small steady overhead, gains much less — the
	// contrast that makes this the OSG lever.
	sBase, err := e.RunWorkflow("sandhills", n)
	if err != nil {
		t.Fatal(err)
	}
	sCl, err := e.RunClustered("sandhills", n, copts)
	if err != nil {
		t.Fatal(err)
	}
	sRed := stats.Reduction(sBase.WallTime(), sCl.WallTime())
	t.Logf("sandhills n=%d: %.1f%% reduction", n, 100*sRed)
	if sRed >= red {
		t.Errorf("sandhills gained %.1f%%, osg %.1f%%; clustering should pay off most where overhead dominates",
			100*sRed, 100*red)
	}
}

// ClusterSweep is deterministic for any worker count and always carries an
// unclustered baseline with ReductionPct 0.
func TestClusterSweepWorkerInvariance(t *testing.T) {
	opts := []planner.ClusterOptions{{}, {MaxTasksPerJob: 6}, {TargetJobSeconds: 2000}}
	one, err := ClusterSweep(7, 200, []string{"osg"}, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	many, err := ClusterSweep(7, 200, []string{"osg"}, opts, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 3 || len(many) != 3 {
		t.Fatalf("sweep returned %d/%d points, want 3", len(one), len(many))
	}
	for i := range one {
		if one[i] != many[i] {
			t.Errorf("point %d differs across worker counts:\n%+v\n%+v", i, one[i], many[i])
		}
	}
	if one[0].ReductionPct != 0 {
		t.Errorf("baseline ReductionPct = %v", one[0].ReductionPct)
	}
	if one[0].MaxTasksPerJob != 0 || one[0].TargetJobSeconds != 0 {
		t.Errorf("first point is not the baseline: %+v", one[0])
	}
}

// Fixed seed ⇒ byte-identical JSON reports with clustering and failover
// enabled, across repeated runs and planning worker counts — determinism
// survives the tentpole.
func TestClusteredFailoverEnsembleDeterministic(t *testing.T) {
	run := func(workers int) []byte {
		exp, err := PaperEnsemble(9, 4, 40, planner.PolicyDataAware)
		if err != nil {
			t.Fatal(err)
		}
		exp.Cluster = planner.ClusterOptions{MaxTasksPerJob: 6}
		exp.Failover = true
		exp.Workers = workers
		report := runReport(t, exp)
		var buf bytes.Buffer
		if err := report.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b, c := run(1), run(1), run(8)
	if !bytes.Equal(a, b) {
		t.Error("same seed, same workers: reports differ byte-for-byte")
	}
	if !bytes.Equal(a, c) {
		t.Error("report depends on planning worker count")
	}
}
