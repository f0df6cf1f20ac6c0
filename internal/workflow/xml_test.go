package workflow

import (
	"bytes"
	"testing"

	"pegflow/internal/dax"
)

// TestBlast2cap3DAXRoundTrip checks that the generated paper workflow
// survives DAX XML serialization intact — the path `pegflow dax | pegflow
// plan` exercises.
func TestBlast2cap3DAXRoundTrip(t *testing.T) {
	w := PaperWorkload(42)
	wf, err := BuildDAX(BuilderConfig{N: 50, Workload: w})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wf.WriteXML(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := dax.ReadXML(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != wf.Len() || got.Edges() != wf.Edges() {
		t.Fatalf("round trip: %d jobs %d edges, want %d/%d",
			got.Len(), got.Edges(), wf.Len(), wf.Edges())
	}
	// Runtime profiles (the cost model annotations) must survive.
	for _, j := range wf.Jobs() {
		gj := got.Job(j.ID)
		if gj == nil {
			t.Fatalf("job %s lost", j.ID)
		}
		if gj.Profile("pegasus", "runtime") != j.Profile("pegasus", "runtime") {
			t.Errorf("job %s runtime changed: %q vs %q",
				j.ID, gj.Profile("pegasus", "runtime"), j.Profile("pegasus", "runtime"))
		}
		if len(gj.Args) != len(j.Args) {
			t.Errorf("job %s args changed: %v vs %v", j.ID, gj.Args, j.Args)
		}
	}
	// Structure checks survive the round trip too.
	cp, err := got.CriticalPathLength()
	if err != nil || cp != 5 {
		t.Errorf("critical path after round trip = %d, %v", cp, err)
	}
}
