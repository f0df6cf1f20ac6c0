// Package blast2cap3 reimplements the protein-guided assembly of Buffalo's
// blast2cap3 (paper §II, §V.B): transcripts are clustered by their best
// BLASTX protein hit, each cluster is assembled with CAP3, and the merged
// transcripts are combined with the untouched remainder.
//
// The package offers both the monolithic serial driver (the paper's
// baseline) and the decomposed stages the Pegasus-style workflow runs as
// separate tasks (create lists, split, run_cap3 per chunk, merge,
// merge_not_joined). LocalExecutor runs those stages for real, on the wall
// clock and worker goroutines, outside the simulation boundary, and
// RunWorkflow plans and runs the whole workflow through it.
package blast2cap3
