package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// usage is a snapshot of the process-wide counters a round is charged
// with: wall clock, CPU (getrusage, user+system), heap allocations.
type usage struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// snapshot reads the counters. ReadMemStats stops the world, so it is
// only ever called at round boundaries, never inside a timed section.
func snapshot() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{
		at:      time.Now(),
		cpu:     cpuTime(),
		mallocs: m.Mallocs,
		bytes:   m.TotalAlloc,
		gcs:     m.NumGC,
	}
}

// cost is what one timed section consumed.
type cost struct {
	wall, cpu time.Duration
	mallocs   uint64
	bytes     uint64
	gcs       uint32
}

func (a cost) plus(b cost) cost {
	return cost{a.wall + b.wall, a.cpu + b.cpu, a.mallocs + b.mallocs, a.bytes + b.bytes, a.gcs + b.gcs}
}

func (u usage) since(start usage) cost {
	return cost{
		wall:    u.at.Sub(start.at),
		cpu:     u.cpu - start.cpu,
		mallocs: u.mallocs - start.mallocs,
		bytes:   u.bytes - start.bytes,
		gcs:     u.gcs - start.gcs,
	}
}

// timed runs fn between two snapshots. It collects garbage first, so
// that every timed section starts at the same point of the collector's
// cycle: without that, a round that allocates about one heap's worth
// (big_run: a 100000-job plan clone) has a collection in every other
// round, and its CPU cost alternates between two values.
func timed(fn func() error) (cost, error) {
	runtime.GC()
	start := snapshot()
	err := fn()
	return snapshot().since(start), err
}

// The statistics below are the harness's own on purpose: the program has
// a nearest-rank too (stats/quantile), but the yardstick must not change
// when the thing it measures does.

// median returns the middle value (mean of the two middle values for an
// even count); NaN for no values.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// nearestRank returns the p-th percentile (0 < p <= 100) of vs by the
// nearest-rank rule: the smallest value with at least p% of the sample
// at or below it. It sorts vs in place.
func nearestRank(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	sort.Float64s(vs)
	rank := int(math.Ceil(p / 100 * float64(len(vs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(vs) {
		rank = len(vs)
	}
	return vs[rank-1]
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method) — the
// rule the PR driver applies to its ten runs — so a spread computed here
// is the spread the driver will compute. It needs at least two values.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	ld := len(s)
	at := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median: the
// steadiness figure every bound is judged against. Fewer than two values
// have no spread.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	q1, q3 := quartiles(vs)
	m := median(vs)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}
