package main

import (
	"sort"
	"sync"
	"time"
)

// hostRef is the harness's yardstick for how fast the host runs at one
// moment. The reference host is a shared VM whose speed changes by a
// quarter from one minute to the next — with its neighbours, not with the
// program — and CPU time moves with wall time there, so no clock of the
// process is steadier than another. What does follow the host is a fixed
// piece of work of the harness's own, timed right beside the section that
// is measured: W goroutines, each sorting the same 2048 numbers a few
// hundred times. It allocates nothing (the collector's state is the program's) and
// stays in the first-level cache; a kernel that chases pointers through
// 16 MiB, and one that is a single dependency chain, followed the
// workloads less well (README, "Steadiness").
//
// A section's clock readings are divided by its host factor — the mean of
// the samples before and after it over the nominal sample — which states
// them in reference time: the time the section would have taken with the host at
// its nominal speed. The factor is reported with every run, so the raw
// reading can be had back.
type hostRef struct {
	sorts    int // per goroutine and sample
	unsorted []float64
	scratch  [][]float64 // one per goroutine
}

const (
	refValues = 2048
	// refSorts makes a sample of 40 ms. Samples of 20 and of 80 ms steadied
	// the metrics equally; what is left is not the sample's own noise.
	refSorts = 400
	// refSortNominal is what one sort takes on the reference host on a
	// quiet day, both vCPUs sorting. It only fixes the scale of reference
	// time; any constant would make the metrics as steady.
	refSortNominal = 100 * time.Microsecond
)

func newHostRef(workers, sorts int) *hostRef {
	h := &hostRef{sorts: sorts, unsorted: make([]float64, refValues), scratch: make([][]float64, workers)}
	x := uint64(88172645463325252) // xorshift64: the same numbers on every host
	for i := range h.unsorted {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h.unsorted[i] = float64(x >> 11)
	}
	for k := range h.scratch {
		h.scratch[k] = make([]float64, refValues)
	}
	return h
}

// sample runs the reference work once and returns how long it took.
func (h *hostRef) sample() time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for _, buf := range h.scratch {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < h.sorts; r++ {
				copy(buf, h.unsorted)
				sort.Float64s(buf)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// factor is how much slower than nominal the host ran during a section
// with the given samples on either side of it.
func (h *hostRef) factor(before, after time.Duration) float64 {
	return float64(before+after) / 2 / float64(time.Duration(h.sorts)*refSortNominal)
}
