package scenario

import (
	"bytes"
	"os"
	"testing"
)

// TestWarmCellsMatchGoldens: cells run on storage earlier cells released —
// executors, record arenas, node-name tables and plan slabs — print the
// same bytes as cells run on fresh storage. paper.json runs, then
// failover-stress.json (two-site pools, clustering, failover) on what it
// released, then paper.json again on what that released; every run must
// equal the CLI golden of its document, and the third the first. Two
// workers share the pools, so `make race` races the hand-over.
func TestWarmCellsMatchGoldens(t *testing.T) {
	run := func(doc, golden string) []byte {
		t.Helper()
		src, err := os.ReadFile("../../examples/scenarios/" + doc)
		if err != nil {
			t.Fatal(err)
		}
		lines, err := compileSource(t, doc, src).Run(RunOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		got := append(bytes.Join(lines, []byte("\n")), '\n')
		want, err := os.ReadFile("../../cmd/pegflow/testdata/" + golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s on recycled storage differs from %s:\n%s", doc, golden, got)
		}
		return got
	}
	first := run("paper.json", "scenario_paper.golden")
	run("failover-stress.json", "scenario_failover_stress.golden")
	if again := run("paper.json", "scenario_paper.golden"); !bytes.Equal(again, first) {
		t.Error("paper.json prints other bytes after failover-stress.json ran")
	}
}
