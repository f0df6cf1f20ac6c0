// Package core is the paper's evaluation as Go values: Experiment.RunAll
// runs the grid of Pavlovikj et al. (IPDPSW 2014) — one blast2cap3 workflow
// on Sandhills and on OSG at n ∈ PaperNValues — and returns AllResults,
// which repro_test.go pins against the paper's findings.
//
// It is a view of a document, not a second driver. The grid is
// examples/scenarios/figures/paper-grid.json, the document `experiments
// -fig 4` and `-fig 5` render, loaded by figures.Load at the experiment's
// seed and run cell by cell through scenario.Compiled.Simulate; each cell's
// member result becomes a RunResult. The serial baseline is not a run: one
// job on one noiseless slot takes exactly its runtime, so it is
// workflow.PaperSerialSeconds, the number `experiments` prints too.
//
// core builds no run path of its own: it imports none of ensemble,
// planner, platform or pool, and names engine only for RunResult.Result's
// type; scenario and server do not import it (TestOneFrontDoor, at the
// repository root). The run path, its plan, member-DAX and chunk-seconds
// caches and PlatformSeed are package scenario's; CacheStats,
// PlanCacheStats and ResetPlanCache remain here only as forwarders for the
// benchmark.
package core
