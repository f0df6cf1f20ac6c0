package core

import (
	"math"
	"sort"
)

// SweepStats summarizes one (platform, n) cell over many seeds — the
// quantitative version of the paper's remark that running times "may vary
// for every new run due to the availability of the current resources"
// (§VI.A).
type SweepStats struct {
	Platform string
	N        int
	// Runs is the number of seeds aggregated.
	Runs int
	// Mean, Stddev, Min, Median and Max summarize the wall times.
	Mean, Stddev, Min, Median, Max float64
	// Evictions is the total across seeds.
	Evictions int
}

// CV returns the coefficient of variation (stddev/mean).
func (s SweepStats) CV() float64 {
	if s.Mean == 0 {
		return 0
	}
	return s.Stddev / s.Mean
}

// Sweep holds a full multi-seed evaluation grid.
type Sweep struct {
	// Serial summarizes the serial baseline.
	Serial SweepStats
	// Cells is indexed by platform then n.
	Cells map[string]map[int]SweepStats
	// OptimalNCounts counts, per platform, how often each n was the
	// best (the paper's "optimum at 300" as a distribution).
	OptimalNCounts map[string]map[int]int
}

func summarize(platform string, n int, vals []float64, evictions int) SweepStats {
	s := SweepStats{Platform: platform, N: n, Runs: len(vals), Evictions: evictions}
	if len(vals) == 0 {
		return s
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.Median = sorted[len(sorted)/2]
	if len(sorted)%2 == 0 {
		s.Median = (sorted[len(sorted)/2-1] + sorted[len(sorted)/2]) / 2
	}
	var sum, sumsq float64
	for _, v := range vals {
		sum += v
	}
	s.Mean = sum / float64(len(vals))
	for _, v := range vals {
		d := v - s.Mean
		sumsq += d * d
	}
	if len(vals) > 1 {
		s.Stddev = math.Sqrt(sumsq / float64(len(vals)-1))
	}
	return s
}
