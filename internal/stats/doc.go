// Package stats aggregates kickstart records into the quantities the
// paper's evaluation reports — the role of pegasus-statistics:
//
//   - "Workflow Wall Time": total running time of the workflow;
//   - "Kickstart Time": actual execution duration of a job on its node;
//   - "Waiting Time": submit-host plus remote-host queueing before the
//     job starts doing anything;
//   - "Download/Install Time": the setup phase spent staging software on
//     sites without a preinstalled stack (OSG).
//
// Aggregations are offered per workflow, per transformation and per
// clustered job (Summarize, PerTransformation, PerCluster), each answering
// from an aggregating log's folded accumulators or from retained records
// with identical values. Percentiles of retained values are PercentilesOf
// (sort a copy, nearest rank); an aggregating log's are read off its
// sketches with quantile.Of.
package stats
