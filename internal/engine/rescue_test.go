package engine

import (
	"bytes"
	"testing"

	"pegflow/internal/dax"
	"pegflow/internal/planner"
)

func TestRescueDAXContainsOnlyUnfinished(t *testing.T) {
	p := diamondPlan(t)
	ex := newFakeExecutor()
	ex.failures["B"] = 10
	res, err := Run(p, ex, Options{RetryLimit: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Success {
		t.Fatal("expected failure")
	}
	rescue, err := RescueDAX(p, res)
	if err != nil {
		t.Fatal(err)
	}
	// B failed, D depends on B: rescue = {B, D}; A and C completed.
	if rescue.Len() != 2 {
		t.Fatalf("rescue has %d jobs: %v", rescue.Len(), rescue.Roots())
	}
	if rescue.Job("B") == nil || rescue.Job("D") == nil {
		t.Error("rescue missing B or D")
	}
	if rescue.Job("A") != nil || rescue.Job("C") != nil {
		t.Error("rescue contains completed jobs")
	}
	// D's dependency on completed C is dropped; on unfinished B kept.
	parents := rescue.Parents("D")
	if len(parents) != 1 || parents[0] != "B" {
		t.Errorf("rescue Parents(D) = %v, want [B]", parents)
	}
	if err := rescue.Validate(); err != nil {
		t.Errorf("rescue workflow invalid: %v", err)
	}
}

func TestRescueDAXRoundTripsThroughXML(t *testing.T) {
	p := diamondPlan(t)
	ex := newFakeExecutor()
	ex.failures["A"] = 10 // root fails: everything unfinished
	res, err := Run(p, ex, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteRescue(&buf, p, res); err != nil {
		t.Fatal(err)
	}
	got, err := dax.ReadXML(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 4 {
		t.Errorf("rescue of failed root has %d jobs, want all 4", got.Len())
	}
	if got.Edges() != p.Graph().Edges() {
		t.Errorf("edges = %d, want %d", got.Edges(), p.Graph().Edges())
	}
}

func TestRescueDAXRefusesSuccess(t *testing.T) {
	p := diamondPlan(t)
	res, err := Run(p, newFakeExecutor(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RescueDAX(p, res); err == nil {
		t.Error("rescue built for successful run")
	}
}

func TestRescueRunnableOnFreshExecutor(t *testing.T) {
	// The rescue sub-plan must itself execute to completion.
	p := diamondPlan(t)
	ex := newFakeExecutor()
	ex.failures["B"] = 10
	res, err := Run(p, ex, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rescue, err := RescueDAX(p, res)
	if err != nil {
		t.Fatal(err)
	}
	// Plan the rescue graph with the original plan's job attributes.
	var jobs []planner.Job
	for _, gj := range rescue.Jobs() {
		jobs = append(jobs, *p.Job(gj.ID))
	}
	sub, err := planner.Assemble(rescue, p.Site, jobs)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Run(sub, newFakeExecutor(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Success {
		t.Errorf("rescue run failed: %v", res2.Unfinished)
	}
	if len(res2.Completed) != 2 {
		t.Errorf("rescue completed %v", res2.Completed)
	}
}
