package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(0) … fn(n-1) across at most `workers` goroutines
// (workers <= 0 means runtime.NumCPU()). It waits for all started tasks,
// and returns the error of the lowest-numbered failed task. Once a task
// has failed, workers claim no further indexes (a worker already past its
// check may start one more); every index claimed runs exactly once.
func ForEach(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	// Each worker records its failure, if any, in its own slot, and wg.Wait
	// orders every slot write before the scan, so no lock is needed. A
	// worker checks for failure before claiming an index, never after:
	// every claimed index runs, and since indexes are claimed in order,
	// every index below a failed one runs too.
	type failure struct {
		i   int
		err error
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		slots  = make([]failure, workers)
	)
	for w := range slots {
		wg.Add(1)
		go func(slot *failure) {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					failed.Store(true)
					*slot = failure{i, err}
					return
				}
			}
		}(&slots[w])
	}
	wg.Wait()
	first := failure{i: n}
	for _, f := range slots {
		if f.err != nil && f.i < first.i {
			first = f
		}
	}
	return first.err
}
