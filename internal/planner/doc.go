// Package planner maps an abstract workflow (package dax) plus catalogs
// (package catalog) onto an executable plan over one or more concrete sites
// — the role of pegasus-plan.
//
// Planning is Resolve → Resolved.Plan → optionally Cluster; New (one site)
// and NewMulti (a site list and a policy) are its one-call forms.
//
// Resolve does what depends on neither runtimes nor policy and returns a
// Resolved that any number of plans share:
//
//  1. validation of the abstract workflow and its topological order;
//  2. site and transformation resolution — per transformation, the
//     candidate sites where it is registered and either preinstalled or
//     installable; a job with no candidate is an error;
//  3. per-job attributes (runtime estimate, input and output bytes);
//  4. with AddStageIn, the external inputs and the jobs consuming them.
//
// Resolved.Plan places the jobs under a policy (or, when no job has a
// choice of site — any one-site list — without consulting one), with
// runtime estimates the caller may override by position, and clones the
// master plan for the placement's stage-in signature (which sites stage
// external inputs, feeding whom: the only thing about a placement that
// changes the topology), materializing and memoizing it on first use, then
// writes each job's site, runtime and install fields at its slab position.
// Install-step injection happens there: at sites without a shared
// software stack (the OSG case in the paper, Fig. 3), jobs whose
// transformation is not preinstalled gain a download/install setup phase.
// One function, Resolved.materialize, turns resolved jobs into a master —
// their IDs and the abstract workflow's edges as arrays — and synthesizes
// the stage-in jobs, one per site ("stage_in_<site>").
//
// Cluster is the one clustering pass — Pegasus's horizontal task clustering
// (paper §III): on a built plan, small jobs of the same transformation at
// the same site and DAG level are merged into composite jobs executed on one
// slot, reducing per-job overhead. It works on the index: it reads the input
// plan's Index (levels, edges, insertion order) and emits the output plan's
// edges and job slab directly, in positions, making no string but the
// composite IDs — every clustered sweep cell runs it once per member plan
// (TestClusterEqualsReferenceBuilder keeps the graph-rebuilding pass as the
// reference).
//
// A built Plan is a shared immutable shape — the dense topological Index,
// Sites — plus one flat slab of planned jobs held by value in index order:
// index and slab are the only topology a plan holds, and no executable
// dax.Workflow is ever stored. One function, buildIndex, makes every Index —
// materialize, Assemble and Cluster each hand it job IDs in insertion order,
// a children arena and indegrees, and it runs Kahn's algorithm as
// dax.Workflow.TopoSort does and refuses a cycle. Plan.Clone copies the slab
// and shares the rest (two allocations at any size), which is what the plan
// cache in package core hands to each sweep cell. Plan.Graph derives the
// dax.Workflow view on every call, for any plan the same way: jobs in
// insertion order with their file usages taken from the abstract workflow
// the plan was resolved from (a composite's are its members'), edges from
// the Index. The view is private to its caller — for printouts, rescue
// workflows and tests; a run needs Len, JobAt and Indexed only. Nothing
// outside this package writes a Job field (the clonegate analyzer enforces
// it), and the package exports no method that writes a plan's slab: the
// per-seed patch is inside Resolved.Plan. Assemble builds a plan from a
// hand-made graph and job list, copying the graph's edges into an Index.
package planner
