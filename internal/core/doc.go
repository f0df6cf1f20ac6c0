// Package core is the high-level facade of pegflow: it wires workload,
// workflow construction, planning, platform simulation and statistics into
// runs of the blast2cap3 workflow (build → plan → run → statistics).
//
// Experiment runs the paper's reproduction grid (RunAll), and
// EnsembleExperiment runs ensembles over a shared platform pool. The
// figures of cmd/experiments — Fig. 4 and Fig. 5, the ablations of
// DESIGN.md, the cloud comparison and the cluster-size, seed and policy
// sweeps — are scenario documents (examples/scenarios/figures) compiled by
// package scenario onto EnsembleExperiment, not code here; no command
// imports this package.
//
// There is one run path. EnsembleExperiment.Run plans N member workflows
// across a site set under a policy and executes them on a shared platform
// pool; a single workflow is an ensemble of one and a single site a pool of
// one, so Experiment (RunAll) is a thin adapter: the
// workflow.World of workflow's table of built-in sites (workflow.PaperSites
// at the preset slot counts, built once per process), a one-member
// EnsembleExperiment on one site of it, and the member's outcome as a
// RunResult. An EnsembleExperiment owns no catalogs, platform models or
// catalog fingerprint: it names a World and the Sites of it to plan across,
// and asks the world for all three; its caller supplies every member's
// workload, and nothing here defaults one. Its platforms are seeded with
// PlatformSeed(Seed, N), which nothing can override, so any front end that
// runs a (seed, n) ensemble runs the same one. Run is the only function
// here that builds a pool and drives member engines, and nothing here calls
// engine.Run, which is the reference the equality tests compare the one
// path against. RunAll's serial baseline is not a run: one job on one
// noiseless slot takes exactly its runtime, so it is the cost model's
// SerialSeconds, rounded as a runtime profile carries it. Whether
// member plans carry stage-in jobs is ensemble.StageIn of Sites, the rule
// every front end shares, so a one-site experiment plans none.
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
//     (workload fingerprint, n, stage-in, fingerprint of the catalog fields
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
