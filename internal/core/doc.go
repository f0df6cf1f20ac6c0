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
// Two process-wide caches make sweeps cheap without changing a single
// output byte (asserted byte-for-byte in tests):
//
//   - the keyed plan cache (plancache.go) builds one immutable master
//     plan per shape key — (site, n, slot counts, workload fingerprint,
//     effective cost model) — and serves each request a Plan.Clone (the
//     master's graph and index shared, its job slab copied: a constant
//     number of allocations at any n) with the requesting seed's chunk
//     runtimes written at the chunk jobs' recorded slab positions;
//   - the member-DAX cache (ensemble.go) memoizes built abstract
//     workflows per (params, seed, n) for ensemble members.
//
// PlanCacheStats exposes build/retrieval counters (surfaced by `pegflow
// serve`'s health endpoint); ResetPlanCache drops every entry — call it
// between sweeps of many distinct seeds, since the member-DAX cache is
// the one cache whose entry count grows with distinct seeds.
//
// Package scenario compiles declarative what-if documents onto this
// facade; both caches are therefore shared across scenario cells and, in
// a `pegflow serve` process, across HTTP requests.
package core
