// Failure handling: run the blast2cap3 workflow on an OSG model with an
// aggressive preemption hazard and a tight retry budget, show the engine
// producing a rescue workflow (the Pegasus rescue-DAG mechanism, paper
// §III), then "resubmit" with a bigger retry budget and finish.
//
//	go run ./examples/rescue
package main

import (
	"fmt"
	"log"

	"pegflow/internal/engine"
	"pegflow/internal/planner"
	"pegflow/internal/sim/platform"
	"pegflow/internal/workflow"
)

func main() {
	w := workflow.PaperWorkload(7)
	abstract, err := workflow.BuildDAX(workflow.BuilderConfig{N: 50, Workload: w})
	if err != nil {
		log.Fatal(err)
	}
	cats, err := workflow.PaperCatalogs(w, 300, 600)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := planner.New(abstract, cats, planner.Options{Site: "osg"})
	if err != nil {
		log.Fatal(err)
	}

	// A hostile grid: slots are reclaimed after ~1,500 s of occupancy on
	// average, so the multi-thousand-second CAP3 tasks are very likely
	// to be evicted repeatedly.
	hostile := platform.OSG(7)
	hostile.EvictionRate = 1.0 / 1500

	ex, err := platform.NewExecutor(hostile)
	if err != nil {
		log.Fatal(err)
	}
	res, err := engine.Run(plan, ex, engine.Options{RetryLimit: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first submission: success=%v evictions=%d retries=%d\n",
		res.Success, res.Evictions, res.Retries)
	if res.Success {
		fmt.Println("(unlucky seed: everything survived; rerun with another seed)")
		return
	}
	rescue := res.RescueWorkflow()
	fmt.Printf("rescue workflow contains %d of %d jobs, e.g. %v\n",
		len(rescue), plan.Len(), rescue[:min(3, len(rescue))])

	// Resubmit: Pegasus reruns the rescue DAG; with a realistic hazard
	// and a bigger retry budget the workflow completes.
	calmer := platform.OSG(7)
	ex2, err := platform.NewExecutor(calmer)
	if err != nil {
		log.Fatal(err)
	}
	res2, err := engine.Run(plan, ex2, engine.Options{RetryLimit: 10})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resubmission: success=%v evictions=%d retries=%d wall=%.0f s\n",
		res2.Success, res2.Evictions, res2.Retries, res2.Makespan)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
