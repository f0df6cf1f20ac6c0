// Package kickstart defines per-invocation provenance records, mirroring
// the role of pegasus-kickstart: every job attempt produces a Record with
// the timing phases the paper's evaluation is built from.
//
// Phases of one attempt (all in seconds of workflow-relative time):
//
//	submit ──waiting──▶ setup start ──setup──▶ exec start ──exec──▶ end
//
// "Waiting Time" (paper §VI.B) is the time between submission and the
// moment the job begins doing anything on a node: queueing on the submit
// host plus queueing on the remote host. "Download/Install Time" is the
// setup phase (only non-zero on sites without preinstalled software).
// "Kickstart Time" is the actual execution duration on the node.
//
// A Log accounts for its records once: every Append updates a running
// Tally (the workflow summary's counts and sums), and the
// per-transformation and per-cluster tables come from one per-record
// fold — run on Append by an aggregating log, which retains no records,
// and on demand by an exact one. The modes differ only in how
// percentiles are kept: retained values, or the aggregating log's
// streaming sketches.
package kickstart
