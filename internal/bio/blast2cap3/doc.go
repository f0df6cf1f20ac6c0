// Package blast2cap3 reimplements the protein-guided assembly of Buffalo's
// blast2cap3 (paper §II, §V.B): transcripts are clustered by their best
// BLASTX protein hit, each cluster is assembled with CAP3, and the merged
// transcripts are combined with the untouched remainder.
//
// Each step has one implementation, driven two ways. clusterByProtein,
// assembleChunk (the only builder of contig records, named
// <protein>_<contig> and described "joined=<sorted ids>") and
// mergeNotJoined (which reads those joined= lists) run in one process
// under RunSerial, the paper's baseline, as one chunk of every cluster;
// the file stages in stages.go (create lists, split, run_cap3 per chunk,
// merge, merge_not_joined) call the same functions as separate workflow
// tasks. localExecutor runs those stages for real, on the wall clock and
// worker goroutines, outside the simulation boundary, and RunWorkflow
// plans and runs the whole workflow through it. Both drivers write
// byte-identical final assemblies for any chunk count.
package blast2cap3
