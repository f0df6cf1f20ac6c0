// Package workflow builds the blast2cap3 scientific workflow of the paper
// (Fig. 2 for Sandhills, Fig. 3 for OSG) as an abstract DAX, and provides
// the calibrated workload and cost models that let the simulator reproduce
// the paper's measurements at full scale.
//
// Workflow shape (paper §V.C):
//
//	create_list_transcripts  create_list_alignments
//	        │                        │
//	        │                      split ──▶ protein_1..n
//	        └──────┬─────────────────┘
//	               ▼
//	      run_cap3_1 … run_cap3_n     (one per cluster chunk, parallel)
//	               │
//	             merge
//	               │
//	        merge_not_joined
//
// The OSG variant (Fig. 3) has the same shape; the download/install steps
// (red rectangles) are injected by the planner from the transformation
// catalog, not drawn into the DAX.
//
// The package also declares where the workflow runs (sites.go). A Site is
// one simulated site — its platform model, stage-in bandwidth, whether
// software is preinstalled and what a job installs when it is not — and the
// paper's two platforms and the cloud of its future work are the rows of one
// table (Preset, PaperSites). A World is a set of declared sites plus what a
// run derives from them: the planner's catalogs, the key plan caches know
// those catalogs by over a site list (memoized on first use), and the seeded
// platform models. The CLI and scenario describe their sites as Site
// values and hand the run path a World, so what the planner is told about a
// site cannot drift from what the simulator runs.
//
// Two seed-independent tables are memoized per WorkloadParams — the
// synthesized clusters and their per-cluster CAP3 seconds under a cost
// model — each in an internal/lru cache with a fixed 32 MiB budget, because
// the params come from client documents: an evicted entry is re-synthesized
// to identical values. The seed-dependent step, CostModel.ChunkSeconds,
// deals the clusters to n chunks over a seeded permutation drawn into pooled
// scratch, so its n-float result is its only allocation; package scenario caches
// that result per (params, cost model, seed, n).
package workflow
