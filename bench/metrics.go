package main

import "time"

// The metric registry: every name the harness may report, with its unit,
// direction and — for end-to-end metrics — the share of the baseline's
// median by which it may worsen before a change counts as a regression.
// BENCHMARK.json at the repository root repeats these lists; a unit test
// keeps the two from drifting apart.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// runSeconds is how long one run measures unless -seconds says otherwise;
// it is BENCHMARK.json's run_seconds.
const runSeconds = 10

// warmUp is how long a run works before it times anything, set-ups
// included. The scenario set-ups take longer than this on their own; the
// serve set-ups take a third of a second, and their first seconds of
// rounds ran up to a quarter slower than the rest (README, "Steadiness").
const warmUp = 5 * time.Second

// endToEnd is reported by every workload with -trace 0. README.md says
// what each metric means on each workload; where a metric is a constant
// multiple of another on some workload (requests_per_s on the scenario
// workloads, attempts_per_s on serve_hit) it moves with it and adds
// nothing, which is harmless: the driver wants one list for all workloads.
//
// The bounds: everything derived from a clock gets the widest bound the
// driver allows. The reference host is a shared 2-vCPU VM whose speed
// moves by a quarter from one minute to the next; in reference time (see
// hostRef) ten runs of one workload spread by 0.02–0.10 there (0.16 at
// worst, on failover_ensemble), and as measured by up to 0.26 (README,
// "Steadiness"). The
// allocation counts repeat to four digits and carry the tight gate.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cells_per_s", "cells/s", "higher", 0.25},
	{"attempts_per_s", "attempts/s", "higher", 0.25},
	{"requests_per_s", "req/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"cpu_us_per_attempt", "us", "lower", 0.25},
	{"cpu_ms_per_request", "ms", "lower", 0.25},
	{"allocs_per_attempt", "count", "lower", 0.02},
	{"alloc_bytes_per_attempt", "B", "lower", 0.02},
}

// perLayer is reported by every workload with -trace 1: workloadLayers
// from the workload's own traced pass (they differ between workloads),
// suiteLayers from the layer suite (layers.go), which is the same
// whichever workload runs.
var perLayer = append(append([]metricDef(nil), workloadLayers...), suiteLayers...)

var workloadLayers = []metricDef{
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "pool.speedup", Unit: "ratio", Better: "higher"},
	{Name: "engine.useful_attempt_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.plan_builds", Unit: "count", Better: "lower"},
	{Name: "core.plan_retrievals", Unit: "count", Better: "lower"},
	{Name: "core.dax_builds", Unit: "count", Better: "lower"},
	{Name: "core.dax_retrievals", Unit: "count", Better: "lower"},
	{Name: "resultcache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "resultcache.evictions", Unit: "count", Better: "lower"},
	{Name: "server.refused_429", Unit: "count", Better: "lower"},
	{Name: "server.aborted_streams", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.heap_peak_mb", Unit: "MiB", Better: "lower"},
	{Name: "runtime.peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "core.cold_pass_s", Unit: "s", Better: "lower"},
}

var suiteLayers = []metricDef{
	// Plan build (cold only).
	{Name: "workflow.build_dax_ns_per_job.n500", Unit: "ns", Better: "lower"},
	{Name: "workflow.build_dax_ns_per_job.n100k", Unit: "ns", Better: "lower"},
	{Name: "planner.new_ns_per_job.n500", Unit: "ns", Better: "lower"},
	{Name: "planner.new_ns_per_job.n100k", Unit: "ns", Better: "lower"},
	// Per-retrieval plan work (every warm cell).
	{Name: "planner.clone_ns_per_job.n500", Unit: "ns", Better: "lower"},
	{Name: "planner.clone_ns_per_job.n100k", Unit: "ns", Better: "lower"},
	{Name: "planner.clone_allocs_per_job.n100k", Unit: "count", Better: "lower"},
	{Name: "workflow.chunk_seconds_ns_per_job.n500", Unit: "ns", Better: "lower"},
	{Name: "workflow.chunk_seconds_ns_per_job.n100k", Unit: "ns", Better: "lower"},
	{Name: "core.patch_ns_per_job.n100k", Unit: "ns", Better: "lower"},
	{Name: "platform.new_executor_us", Unit: "us", Better: "lower"},
	// The run itself.
	{Name: "engine.self_ns_per_attempt.n500", Unit: "ns", Better: "lower"},
	{Name: "engine.self_ns_per_attempt.n100k", Unit: "ns", Better: "lower"},
	{Name: "engine.run_allocs_per_attempt.n100k", Unit: "count", Better: "lower"},
	{Name: "platform.ns_per_attempt.n500", Unit: "ns", Better: "lower"},
	{Name: "platform.ns_per_attempt.n100k", Unit: "ns", Better: "lower"},
	{Name: "des.schedule_fire_ns.depth64", Unit: "ns", Better: "lower"},
	{Name: "des.schedule_fire_ns.depth100k", Unit: "ns", Better: "lower"},
	{Name: "des.acquire_release_ns", Unit: "ns", Better: "lower"},
	// The n-curve, through the front door.
	{Name: "core.warm_ns_per_attempt.n1k", Unit: "ns", Better: "lower"},
	{Name: "core.warm_ns_per_attempt.n10k", Unit: "ns", Better: "lower"},
	{Name: "core.warm_ns_per_attempt.n100k", Unit: "ns", Better: "lower"},
	{Name: "core.ncurve_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.replay_coverage.n100k", Unit: "ratio", Better: "higher"},
	// Where a warm big_run cell's allocations go.
	{Name: "attribution.clone.allocs_per_attempt", Unit: "count", Better: "lower"},
	{Name: "attribution.clone.bytes_per_attempt", Unit: "B", Better: "lower"},
	{Name: "attribution.chunk_patch.allocs_per_attempt", Unit: "count", Better: "lower"},
	{Name: "attribution.chunk_patch.bytes_per_attempt", Unit: "B", Better: "lower"},
	{Name: "attribution.executor.allocs_per_attempt", Unit: "count", Better: "lower"},
	{Name: "attribution.executor.bytes_per_attempt", Unit: "B", Better: "lower"},
	{Name: "attribution.engine_run.allocs_per_attempt", Unit: "count", Better: "lower"},
	{Name: "attribution.engine_run.bytes_per_attempt", Unit: "B", Better: "lower"},
	{Name: "attribution.stats.allocs_per_attempt", Unit: "count", Better: "lower"},
	{Name: "attribution.stats.bytes_per_attempt", Unit: "B", Better: "lower"},
	// Folds and statistics.
	{Name: "kickstart.append_aggregate_ns", Unit: "ns", Better: "lower"},
	{Name: "kickstart.append_exact_ns", Unit: "ns", Better: "lower"},
	{Name: "quantile.sketch_add_ns", Unit: "ns", Better: "lower"},
	{Name: "stats.summarize_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "stats.per_transformation_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "stats.percentiles_ns_per_value", Unit: "ns", Better: "lower"},
	// The ensemble run path.
	{Name: "dax.clone_ns_per_job.n2k", Unit: "ns", Better: "lower"},
	{Name: "planner.new_multi_ns_per_job.n2k", Unit: "ns", Better: "lower"},
	{Name: "planner.cluster_ns_per_job.n2k", Unit: "ns", Better: "lower"},
	{Name: "ensemble.plan_all_ns_per_job.n2k", Unit: "ns", Better: "lower"},
	{Name: "ensemble.run_ns_per_attempt.n2k", Unit: "ns", Better: "lower"},
	{Name: "platform.multi_ns_per_attempt.n2k", Unit: "ns", Better: "lower"},
	{Name: "fault.compile_us", Unit: "us", Better: "lower"},
	// The request path.
	{Name: "scenario.parse_us", Unit: "us", Better: "lower"},
	{Name: "scenario.compile_us", Unit: "us", Better: "lower"},
	{Name: "scenario.hit_run_us_per_cell", Unit: "us", Better: "lower"},
	{Name: "scenario.row_bytes", Unit: "B", Better: "lower"},
	{Name: "resultcache.get_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "resultcache.put_ns", Unit: "ns", Better: "lower"},
	{Name: "server.handler_hit_us", Unit: "us", Better: "lower"},
	{Name: "server.handler_miss_us", Unit: "us", Better: "lower"},
	{Name: "server.http_hit_us", Unit: "us", Better: "lower"},
	{Name: "core.plan_cold_ms_per_request", Unit: "ms", Better: "lower"},
}

func findMetric(defs []metricDef, name string) *metricDef {
	for i := range defs {
		if defs[i].Name == name {
			return &defs[i]
		}
	}
	return nil
}

// value is one reported metric. Samples holds the per-round values the
// reported value summarizes, where there are any; -compare judges the
// round-to-round spread from them.
type value struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// benchmarkFile is the shape of BENCHMARK.json, the PR driver's contract.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadWhy `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"` // no bounds: omitted
}

type workloadWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// describe renders the registry as BENCHMARK.json.
func describe() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, workloadWhy{w.name, w.why})
	}
	return f
}
