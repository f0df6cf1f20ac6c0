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
// Execution reuses the core facade: every cell, whatever its shape, is one
// core.EnsembleExperiment — a single workflow is an ensemble of one, a
// single site a pool of one — and hits core's plan cache (resolved masters
// placed, cloned and patched per seed and policy). Compiled.Simulate runs
// one cell; Run totals its result into the row, and callers read it whole. Whether a cell's plans
// carry stage-in jobs follows from its site set alone (ensemble.StageIn),
// as for every other front end. No plan-cache key holds a seed, so a
// long-running process (pegflow serve) warms up across requests and does
// not grow with the seeds it is asked for; the catalog fingerprint in the
// key is the world's (World.Key),
// computed once per document and site set by the first cell that is
// actually simulated — never by Compile, which a request served from the
// result cache also pays.
package scenario
