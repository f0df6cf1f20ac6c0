// Package quantile provides the two quantile backends behind pegflow's
// percentile reporting: the nearest-rank rule over sorted retained values
// (NearestRank; stats.PercentilesOf selects the ranks NearestRankIndex
// names instead of sorting), and a fixed-size streaming sketch (an extended
// P² estimator) for runs too large to retain per-attempt values. The exact path is the default; the sketch is
// opt-in via the aggregation mode of kickstart.Log and trades a documented
// rank error (see Sketch) for O(1) memory per metric.
//
// The package is a leaf: it imports only the standard library, so both
// internal/kickstart and internal/stats can depend on it without
// cycles.
package quantile
