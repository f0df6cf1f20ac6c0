// Package scenario turns checked-in JSON documents into executable
// what-if experiments over the simulation stack — the declarative layer
// between "a library that reproduces the paper" and a service that answers
// arbitrary capacity-planning questions about the blast2cap3 workflow.
//
// A scenario declares four things:
//
//   - sites: the platform pool, as named presets (sandhills, osg, cloud)
//     with optional overrides, or fully inline definitions (slots, speed,
//     dispatch/setup distributions, eviction hazard);
//   - a workload: the paper preset or an inline rank-size law, an n-sweep
//     and a seed list;
//   - a policy matrix: site-selection policy × clustering options ×
//     failover, crossed with the workload axes into a deterministic cell
//     grid;
//   - outputs: which report fields each cell row carries, plus optional
//     per-attempt percentiles.
//
// Load/Parse validate the document with line- and field-qualified errors
// (`paper.json:14: sites[1].slots: must be positive`); the source lines
// come from a second walk of the document that only a failed validation
// makes, so a valid document is decoded and checked once. Compile expands it
// into the cell grid and fingerprints it (SHA-256 over the normalized
// document), and Compiled.Run executes the grid over the bounded worker
// pool, emitting one NDJSON line per cell in deterministic cell order —
// byte-identical for any worker count.
//
// A declared site resolves to a workflow.Site (SiteSpec.site): the preset's
// row of workflow's table, or workflow.DefaultSite for an inline definition,
// with the document's overrides applied. Compile builds the workflow.World
// of those sites and every cell hands it to the run path with its site set
// and seed, so a bare preset plans and runs on exactly the site
// `pegflow run -site` does.
//
// Execution has one path, and this package owns it: every cell, whatever
// its shape, is one EnsembleExperiment (experiment.go) — a single workflow
// is an ensemble of one, a single site a pool of one — whose Run plans the
// members across the cell's sites and drives them on one platform pool
// seeded with PlatformSeed(seed, n). Compiled.Simulate runs one cell; Run
// totals its result into the row, and callers read it whole. Whether a
// cell's plans carry stage-in jobs follows from its site set alone
// (ensemble.StageIn), as for every other front end.
//
// Three process-wide caches (plancache.go), each an internal/lru cache
// with a constant byte budget, make sweeps cheap without changing a single
// output byte:
//
//   - the plan cache keeps one planner.Resolved master per (workload
//     fingerprint, n, stage-in, fingerprint of the catalog fields planning
//     reads over the ordered site list: World.Key). A member plan is the
//     seed's chunk runtimes plus Resolved.Plan — a placement pass under the
//     cell's policy, a Clone of the master plan memoized for that
//     placement's stage-in signature, one patch of site, install and
//     runtime fields — and equals planner.NewMulti on the member's own
//     BuildDAX;
//   - the member-DAX cache holds the abstract workflow per (workload
//     fingerprint, n) the masters are resolved from; both shape caches
//     charge an entry from its key's n and build it once under a sync.Once;
//   - the chunk-seconds cache holds the rounded run_cap3 runtimes per
//     (workload params, cost model, seed, n), 32 MiB; the cells of a grid
//     that differ only in sites, policy, clustering or failover deal each
//     (seed, n) once.
//
// No plan or DAX key holds a seed, so a long-running process (pegflow serve)
// warms up across requests and does not grow with the seeds it is asked
// for; the one cache keyed on a seed is the byte-bounded chunk-seconds
// cache. World.Key is computed once per document and site set by the first
// cell that is actually simulated — never by Compile, which a request
// served from the result cache also pays. PlanCacheStats reports the
// caches' counters (pegflow serve's /v1/healthz); ResetPlanCache empties
// all three, for tests and benchmarks that want a cold cache.
package scenario
