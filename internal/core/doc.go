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
// Three process-wide caches make sweeps cheap without changing a single
// output byte (asserted byte-for-byte in tests). A workload seed moves
// nothing but the run_cap3 runtime estimates, which are written per
// retrieval, so no key holds a seed: entries follow distinct shapes, and a
// seed never seen before runs as warm as a repeated one.
//
//   - the keyed plan cache (plancache.go) builds one immutable master
//     plan per shape key — (site, n, slot counts, workload fingerprint,
//     effective cost model) — and serves each request a Plan.Clone (the
//     master's graph and index shared, its job slab copied: a constant
//     number of allocations at any n) with the requesting seed's chunk
//     runtimes written at the chunk jobs' recorded slab positions;
//   - the multi-site plan cache (ensemble.go) keeps one planner.Resolved
//     master per (workload fingerprint, n, AddStageIn, fingerprint of the
//     catalog fields planning reads over the ordered site list) — content,
//     not pointers, because every scenario compile builds fresh catalogs.
//     An ensemble member plan is the seed's ChunkSeconds plus
//     Resolved.Plan: a placement pass under the cell's policy, a Clone of
//     the master graph memoized for that placement's stage-in signature,
//     and one patch of site, install and runtime fields; it equals
//     planner.NewMulti on the member's own BuildDAX;
//   - the member-DAX cache (ensemble.go) holds the abstract workflow per
//     (workload fingerprint, n) that those masters are resolved from.
//
// PlanCacheStats exposes build/retrieval counters (surfaced by `pegflow
// serve`'s health endpoint); ResetPlanCache drops every entry, for tests
// and benchmarks that want a cold cache.
//
// Package scenario compiles declarative what-if documents onto this
// facade; the caches are therefore shared across scenario cells and, in
// a `pegflow serve` process, across HTTP requests.
package core
