// Package core is the high-level facade of pegflow: it wires workload,
// workflow construction, planning, platform simulation and statistics into
// the paper's experiments (build → plan → run → statistics), so that one
// call reproduces one bar of Fig. 4 or one panel of Fig. 5.
//
// Beyond the reproduction grid (Experiment, RunAll, MonteCarloSweep) the
// package hosts the post-paper experiment axes: the cluster-size sweep
// (ClusterSweep), ensemble experiments comparing site-selection policies
// over a shared platform pool (EnsembleExperiment, ComparePolicies), and
// the ablations of DESIGN.md.
//
// There is one run path. EnsembleExperiment.Run plans N member workflows
// across a site set under a policy and executes them on a shared platform
// pool; a single workflow is an ensemble of one and a single site a pool of
// one, so Experiment (RunWorkflow, RunClustered, RunAll, the Monte Carlo and
// cluster sweeps, the ablations) is a thin adapter: the workflow.World of
// workflow's table of built-in sites (workflow.PaperSites at the preset
// slot counts, built once per process), a one-member
// EnsembleExperiment on one site of it planned without stage-in jobs, and
// the member's outcome as a RunResult. An EnsembleExperiment owns no
// catalogs, platform models or catalog fingerprint: it names a World, the
// Sites of it to plan across and a PlatformSeed, and asks the world for all
// three. Run is the only function here that builds a pool and drives member
// engines; RunVariant hands the same path the world of an edited site
// declaration (preinstalled, or without the eviction hazard) or another
// workload, and RunSerial (a one-job DAX) alone plans directly and calls
// engine.Run, which is also the reference the equality tests compare the
// one path against. Whether plans carry stage-in jobs
// (EnsembleExperiment.StageIn) is an explicit input: it is the one
// observable the former single-site pipeline differed in.
//
// Three process-wide caches make sweeps cheap without changing a single
// output byte (asserted byte-for-byte in tests). All three are internal/lru
// caches with a constant byte budget. A workload seed moves nothing but the
// run_cap3 runtime estimates, which are written per retrieval, so no plan
// or DAX key holds a seed: those entries follow distinct shapes, and a seed
// never seen before plans as warm as a repeated one. The runtime estimates
// themselves are the third cache, the only one keyed on a seed.
//
//   - the plan cache (ensemble.go) keeps one planner.Resolved master per
//     (workload fingerprint, n, StageIn, fingerprint of the catalog fields
//     planning reads over the ordered site list) — content, not pointers,
//     because every scenario compile builds fresh catalogs; the fingerprint
//     is workflow.World.Key, computed once per world and site list. A
//     member plan is the seed's ChunkSeconds plus
//     Resolved.Plan: a placement pass under the cell's policy (none when no
//     job has a choice of site), a Clone of the master plan memoized for
//     that placement's stage-in signature (the master's index shared, its
//     job slab copied: a constant number of allocations at any n), and one
//     patch of site, install and runtime fields; it equals
//     planner.NewMulti on the member's own BuildDAX, and on one site
//     planner.New;
//   - the member-DAX cache (ensemble.go) holds the abstract workflow per
//     (workload fingerprint, n) that those masters are resolved from;
//     it and the plan cache charge an entry from its key's n at measured
//     per-chunk constants against shapeCacheBytes each (plancache.go), a
//     budget no benchmark, test or example reaches, on one shard; each
//     entry builds itself once under a sync.Once, and nothing pins it — a
//     cell holds its master by pointer, so an eviction only costs the next
//     cell of that shape a rebuild;
//   - the chunk-seconds cache (plancache.go) holds the rounded run_cap3
//     runtimes per (workload params, cost model, seed, n) in an
//     internal/lru cache of 32 MiB (a constant). The runtimes depend on
//     nothing else a cell varies, so the cells of a scenario grid that
//     differ in site set, policy, clustering or failover — and every
//     what-if document over the same workload and seeds — deal each
//     (seed, n) once. Every member plan reads it through
//     roundedChunkSeconds; the slice is shared and read-only; hand-built
//     workloads bypass it; past the budget the least recently used entries
//     go, and the cost falls back to the uncached one.
//
// PlanCacheStats exposes build/retrieval counters, the shape caches' bytes
// and evictions, and the chunk-seconds cache's hits, misses, evictions and
// bytes (surfaced by `pegflow serve`'s
// health endpoint); ResetPlanCache drops every entry of all three, for
// tests and benchmarks that want a cold cache.
//
// Package scenario compiles declarative what-if documents onto this
// facade; the caches are therefore shared across scenario cells and, in
// a `pegflow serve` process, across HTTP requests.
package core
