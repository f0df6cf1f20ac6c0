package core

import (
	"bytes"
	"testing"

	"pegflow/internal/planner"
)

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
