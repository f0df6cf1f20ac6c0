package engine_test

import (
	"fmt"
	"log"
	"os"

	"pegflow/internal/catalog"
	"pegflow/internal/dax"
	"pegflow/internal/engine"
	"pegflow/internal/planner"
	"pegflow/internal/sim/platform"
	"pegflow/internal/stats"
)

// ExampleRun builds a small abstract workflow by hand, plans it for a site,
// runs it on a simulated campus cluster and prints pegasus-statistics-style
// output.
func ExampleRun() {
	// 1. Describe an abstract workflow: a classic diamond.
	wf := dax.New("diamond")
	wf.NewJob("prepare", "preprocess").
		AddInput("raw.dat", 1<<20).
		AddOutput("clean.dat", 1<<20).
		SetProfile("pegasus", "runtime", "120")
	for i, branch := range []string{"left", "right"} {
		wf.NewJob(branch, "analyze").
			AddInput("clean.dat", 1<<20).
			AddOutput(fmt.Sprintf("part%d.dat", i), 512<<10).
			SetProfile("pegasus", "runtime", "600")
	}
	wf.NewJob("combine", "merge").
		AddInput("part0.dat", 512<<10).
		AddInput("part1.dat", 512<<10).
		AddOutput("result.dat", 64<<10).
		SetProfile("pegasus", "runtime", "60")
	// Dependencies: each job runs after the producers of its inputs.
	for _, e := range [][2]string{{"prepare", "left"}, {"prepare", "right"}, {"left", "combine"}, {"right", "combine"}} {
		if err := wf.AddDependency(e[0], e[1]); err != nil {
			log.Fatal(err)
		}
	}

	// 2. Catalogs: one campus-cluster site with everything installed.
	cats := planner.Catalogs{
		Sites:           catalog.NewSiteCatalog(),
		Transformations: catalog.NewTransformationCatalog(),
		Replicas:        catalog.NewReplicaCatalog(),
	}
	if err := cats.Sites.Add(&catalog.Site{
		Name: "campus", Slots: 4, SpeedFactor: 1.0, SharedSoftware: true,
	}); err != nil {
		log.Fatal(err)
	}
	for _, tr := range []string{"preprocess", "analyze", "merge"} {
		if err := cats.Transformations.Add(&catalog.Transformation{
			Name: tr, Site: "campus", PFN: "/opt/bin/" + tr, Installed: true,
		}); err != nil {
			log.Fatal(err)
		}
	}
	if err := cats.Replicas.Add("raw.dat", catalog.Replica{Site: "local", PFN: "/data/raw.dat"}); err != nil {
		log.Fatal(err)
	}

	// 3. Plan (pegasus-plan) and run (pegasus-run via DAGMan).
	plan, err := planner.New(wf, cats, planner.Options{Site: "campus", AddStageIn: true})
	if err != nil {
		log.Fatal(err)
	}
	ex, err := platform.NewExecutor(platform.Config{
		Name: "campus", Slots: 4, SpeedFactor: 1.0,
		DispatchMean: 15, DispatchCV: 0.3, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := engine.Run(plan, ex, engine.Options{RetryLimit: 2})
	if err != nil {
		log.Fatal(err)
	}

	// 4. Statistics (pegasus-statistics).
	fmt.Printf("workflow %q: success=%v\n\n", wf.Name, res.Success)
	if err := stats.WriteSummary(os.Stdout, wf.Name, stats.Summarize(res.Log, res.Makespan)); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	if err := stats.WritePerTransformation(os.Stdout, stats.PerTransformation(res.Log)); err != nil {
		log.Fatal(err)
	}
	// Output:
	// workflow "diamond": success=true
	//
	// # Workflow statistics: diamond
	// Workflow Wall Time           :        854.6 s (0:14:15)
	// Cumulative Job Wall Time     :       1466.0 s (0:24:26)
	// Cumulative Kickstart Time    :       1380.0 s (0:23:00)
	// Jobs succeeded               :            5
	// Total attempts               :            5
	// Failed attempts              :            0
	// Retries                      :            0
	//
	// TRANSFORMATION  COUNT  KICKSTART(s)  WAITING(s)  DOWNLOAD/INSTALL(s)  MAX KICKSTART(s)
	// analyze         2      600.0         15.3        0.0                  600.0
	// merge           1      60.0          14.1        0.0                  60.0
	// preprocess      1      120.0         21.1        0.0                  120.0
	// stage_in        1      0.0           20.2        0.0                  0.0
}
