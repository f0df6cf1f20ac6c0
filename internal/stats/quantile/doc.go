// Package quantile provides the two quantile backends behind pegflow's
// percentile reporting: the nearest-rank rule over sorted retained values
// (NearestRank; stats.PercentilesOf selects the ranks NearestRankIndex
// names instead of sorting), and a fixed-size streaming sketch for runs too
// large to retain per-attempt values. The exact path is the default; the
// sketch is opt-in via the aggregation mode of kickstart.Log. It is a
// log-linear histogram keyed on a value's float64 bits: it counts every
// value, so its ranks are exact, and it reports a value within 2^-8
// relative of the exact nearest-rank answer (see Sketch), in about 18 KiB
// per metric whatever the stream length.
//
// The package is a leaf: it imports only the standard library, so both
// internal/kickstart and internal/stats can depend on it without
// cycles.
package quantile
