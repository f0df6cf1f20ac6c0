package core

import (
	"bytes"
	"testing"

	"pegflow/internal/planner"
	"pegflow/internal/stats"
)

func heteroExperiment(t testing.TB, seed uint64, policy string) *EnsembleExperiment {
	e, err := HeteroBenchEnsemble(seed, 8, 24, policy)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// runReport runs the experiment and renders its report.
func runReport(t testing.TB, e *EnsembleExperiment) *stats.EnsembleReport {
	t.Helper()
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res.Report(e.Policy)
}

// The paper-world ensemble (Sandhills + OSG) runs to completion and its
// JSON report is reproducible.
func TestPaperEnsembleReproducible(t *testing.T) {
	var first []byte
	for i := 0; i < 2; i++ {
		e, err := PaperEnsemble(42, 8, 20, planner.PolicyDataAware)
		if err != nil {
			t.Fatal(err)
		}
		report := runReport(t, e)
		for _, w := range report.Workflows {
			if !w.Success {
				t.Errorf("workflow %s incomplete", w.Name)
			}
		}
		var buf bytes.Buffer
		if err := report.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = buf.Bytes()
		} else if !bytes.Equal(first, buf.Bytes()) {
			t.Errorf("paper ensemble report differs between runs:\n%s\n---\n%s", first, buf.Bytes())
		}
	}
}

// BenchmarkEnsemble measures an 8-workflow, 2-site ensemble per policy on
// the heterogeneous fixture — the data-aware row should show the smaller
// reported makespan (exposed via the makespan_s metric). Each policy also
// runs a clustered+failover variant, the tentpole's ensemble-level effect
// (failovers surface via the failovers metric).
func BenchmarkEnsemble(b *testing.B) {
	variants := []struct {
		name     string
		cluster  planner.ClusterOptions
		failover bool
	}{
		{"plain", planner.ClusterOptions{}, false},
		{"cluster4-failover", planner.ClusterOptions{MaxTasksPerJob: 4}, true},
	}
	for _, policy := range planner.PolicyNames() {
		for _, v := range variants {
			b.Run(policy+"/"+v.name, func(b *testing.B) {
				var makespan float64
				var failovers int
				for i := 0; i < b.N; i++ {
					e := heteroExperiment(b, 42, policy)
					e.Cluster = v.cluster
					e.Failover = v.failover
					report := runReport(b, e)
					makespan = report.Makespan
					failovers = report.TotalFailovers
				}
				b.ReportMetric(makespan, "makespan_s")
				b.ReportMetric(float64(failovers), "failovers")
			})
		}
	}
}
