// Package planner maps an abstract workflow (package dax) plus catalogs
// (package catalog) onto an executable plan for one concrete site — the
// role of pegasus-plan.
//
// Planning performs, in order:
//
//  1. validation of the abstract workflow;
//  2. site and transformation resolution — every logical transformation
//     must be registered at the target site;
//  3. install-step injection — at sites without a shared software stack
//     (the OSG case in the paper, Fig. 3), jobs whose transformation is
//     not preinstalled gain a download/install setup phase;
//  4. optional stage-in job synthesis for external input files;
//  5. optional horizontal task clustering — small jobs of the same
//     transformation at the same DAG level are merged into clustered jobs
//     executed on one slot, reducing per-job overhead (Pegasus's task
//     clustering, paper §III).
//
// Multi-site planning (NewMulti) is three steps. Resolve does what depends on
// neither runtimes nor policy — validation, topological order, per-job
// attributes, per-transformation site candidates — and returns a Resolved
// that any number of plans share. Resolved.Plan places the jobs under a
// policy (or, when no job has a choice of site — any one-site list — without
// consulting one), with runtime estimates the caller may override by
// position, and clones the executable graph for the placement's stage-in signature (which
// sites stage external inputs, feeding whom: the only thing about a
// placement that changes the graph), materializing and memoizing it on first
// use, then writes each job's site, install and runtime fields at its
// recorded slab position. NewMulti is Resolve plus one Plan.
//
// A built Plan is a shared immutable shape — the executable Graph, the
// dense topological Index, Sites, SiteEntry — plus one flat slab of planned
// jobs held by value in index order. Plan.Clone copies the slab and shares
// the rest (two allocations at any size), which is what the plan cache in
// package core hands to each sweep cell. Nothing outside this package
// writes a Job field or edits a plan's Graph (the clonegate analyzer
// enforces it), and the package exports no method that writes a plan's slab:
// the per-seed patch is inside Resolved.Plan. Assemble builds a plan from a
// hand-made graph and job list. Cluster reads job levels and edges from the
// shared Index.
package planner
