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
// clustered job (Summarize, PerTransformation, PerCluster). None walks
// records: Summarize reads the log's running kickstart.Tally, and the
// other two read the tables Log.ByTransformation and Log.ByCluster fold
// — on Append for an aggregating log, on demand for an exact one —
// through one per-record fold, so both modes report identical values.
// Percentiles are the one mode difference: an exact log's are
// PercentilesOf its retained values (nearest rank, each requested rank
// quickselected in a copy, which equals sorting it; or PercentilesInPlace,
// which permutes values the caller owns instead of copying them), an
// aggregating log's are read off its sketches with quantile.Of.
package stats
