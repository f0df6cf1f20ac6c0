package core

import (
	"bytes"
	"testing"

	"pegflow/internal/planner"
)

// Fixed seed ⇒ byte-identical JSON reports with clustering and failover
// enabled, across repeated runs.
func TestClusteredFailoverEnsembleDeterministic(t *testing.T) {
	run := func() []byte {
		exp, err := PaperEnsemble(9, 4, 40, planner.PolicyDataAware)
		if err != nil {
			t.Fatal(err)
		}
		exp.Cluster = planner.ClusterOptions{MaxTasksPerJob: 6}
		exp.Failover = true
		report := runReport(t, exp)
		var buf bytes.Buffer
		if err := report.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(run(), run()) {
		t.Error("same seed: reports differ byte-for-byte")
	}
}
