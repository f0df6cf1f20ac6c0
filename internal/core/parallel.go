// Parallel experiment harness: pool.ForEach fans the Monte Carlo grid and
// the single-seed evaluation grid out across a bounded worker pool. Every
// task derives its entire RNG state from (baseSeed, rep, platform, n), so a
// parallel sweep is bit-for-bit identical to a serial one: a Monte Carlo
// cell builds its own Experiment; RunAll's cells share one, whose only
// mutable state is the paper world its first run builds under a sync.Once; the
// process-wide plan caches hand every cell the same plan whichever worker
// fills an entry; and results are merged in deterministic rep-major order
// after collection instead of being accumulated under a lock.

package core

import (
	"fmt"
	"math"
	"sync"

	"pegflow/internal/pool"
)

// SweepOptions configures a Monte Carlo sweep.
type SweepOptions struct {
	// Platforms defaults to the paper's two when nil.
	Platforms []string
	// NValues defaults to PaperNValues when nil.
	NValues []int
	// Workers bounds the number of concurrent simulations; <= 0 means
	// runtime.NumCPU(), 1 forces the serial path. Any worker count
	// produces identical output for the same base seed.
	Workers int
	// Progress, when non-nil, is called after each completed grid cell
	// with the number of finished cells and the total. Calls are
	// serialized, but their order follows completion, not cell order. Each
	// call runs under the sweep's progress lock, so a slow Progress holds up
	// every worker finishing a cell meanwhile.
	Progress func(done, total int)
}

// progress counts a sweep's finished cells and reports each to fn, one call
// at a time: fn runs under the lock, which is what serializes it.
type progress struct {
	mu          sync.Mutex
	fn          func(done, total int)
	done, total int
}

// tick counts one finished cell.
func (p *progress) tick() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	if p.fn != nil {
		p.fn(p.done, p.total)
	}
}

// sweepCell is the raw outcome of one (rep, platform, n) simulation.
type sweepCell struct {
	wall      float64
	evictions int
}

// MonteCarloSweep runs the evaluation grid for `runs` seeds starting at
// baseSeed — one serial baseline plus one (platform, n) workflow run per
// seed — across a bounded worker pool, and aggregates per cell. Each grid
// cell builds its own Experiment from baseSeed+rep, so workers share no
// state and the result is independent of the worker count.
func MonteCarloSweep(baseSeed uint64, runs int, opts SweepOptions) (*Sweep, error) {
	if runs <= 0 {
		return nil, fmt.Errorf("core: non-positive run count %d", runs)
	}
	platforms := opts.Platforms
	if platforms == nil {
		platforms = Platforms
	}
	nValues := opts.NValues
	if nValues == nil {
		nValues = PaperNValues
	}

	// Task layout, rep-major: for each rep, the serial baseline followed
	// by the (platform, n) cells in grid order.
	perRep := 1 + len(platforms)*len(nValues)
	total := runs * perRep
	serialWalls := make([]float64, runs)
	cells := make([]sweepCell, runs*len(platforms)*len(nValues))

	prog := &progress{fn: opts.Progress, total: total}

	err := pool.ForEach(opts.Workers, total, func(i int) error {
		rep, k := i/perRep, i%perRep
		e := DefaultExperiment(baseSeed + uint64(rep))
		if k == 0 {
			ser, err := e.RunSerial()
			if err != nil {
				return err
			}
			serialWalls[rep] = ser.WallTime()
			prog.tick()
			return nil
		}
		j := k - 1
		p, n := platforms[j/len(nValues)], nValues[j%len(nValues)]
		res, err := e.RunWorkflow(p, n)
		if err != nil {
			return fmt.Errorf("core: seed %d %s n=%d: %w", e.Seed, p, n, err)
		}
		cells[rep*len(platforms)*len(nValues)+j] = sweepCell{
			wall:      res.WallTime(),
			evictions: res.Result.Evictions,
		}
		prog.tick()
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Deterministic merge: walk reps in order so wall-time slices (and
	// therefore every floating-point accumulation in summarize) see the
	// exact sequence the serial loop produced.
	walls := make(map[string]map[int][]float64)
	evs := make(map[string]map[int]int)
	opt := make(map[string]map[int]int)
	for _, p := range platforms {
		walls[p] = make(map[int][]float64)
		evs[p] = make(map[int]int)
		opt[p] = make(map[int]int)
	}
	for rep := 0; rep < runs; rep++ {
		for pi, p := range platforms {
			bestN, bestW := 0, math.Inf(1)
			for ni, n := range nValues {
				c := cells[(rep*len(platforms)+pi)*len(nValues)+ni]
				walls[p][n] = append(walls[p][n], c.wall)
				evs[p][n] += c.evictions
				if c.wall < bestW {
					bestN, bestW = n, c.wall
				}
			}
			opt[p][bestN]++
		}
	}

	out := &Sweep{
		Serial:         summarize("serial", 0, serialWalls, 0),
		Cells:          make(map[string]map[int]SweepStats),
		OptimalNCounts: opt,
	}
	for _, p := range platforms {
		out.Cells[p] = make(map[int]SweepStats)
		for _, n := range nValues {
			out.Cells[p][n] = summarize(p, n, walls[p][n], evs[p][n])
		}
	}
	return out, nil
}
