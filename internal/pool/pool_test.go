package pool

import (
	"fmt"
	"sync/atomic"
	"testing"
)

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16, 100} {
		const n = 37
		var counts [n]atomic.Int32
		if err := ForEach(workers, n, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForEachZeroTasks(t *testing.T) {
	if err := ForEach(4, 0, func(int) error { t.Error("fn called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// Indexes are claimed in order and every claimed index runs, so the lowest
// failing index always runs, however many higher ones fail concurrently;
// the reported error is its. Every index ≥ 7 failing puts eight workers'
// failures in a race for the report, so the case repeats.
func TestForEachReturnsLowestFailedIndex(t *testing.T) {
	cases := map[string]func(i int) bool{
		"7 and 30 fail":    func(i int) bool { return i == 7 || i == 30 },
		"every i>=7 fails": func(i int) bool { return i >= 7 },
	}
	for name, fails := range cases {
		for _, workers := range []int{1, 4, 8} {
			for rep := 0; rep < 50; rep++ {
				err := ForEach(workers, 50, func(i int) error {
					if fails(i) {
						return fmt.Errorf("task %d failed", i)
					}
					return nil
				})
				if err == nil || err.Error() != "task 7 failed" {
					t.Fatalf("%s, workers=%d, rep %d: err = %v, want task 7", name, workers, rep, err)
				}
			}
		}
	}
}

func TestForEachStopsStartingAfterFailure(t *testing.T) {
	var started atomic.Int32
	err := ForEach(1, 1000, func(i int) error {
		started.Add(1)
		if i == 3 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if got := started.Load(); got != 4 {
		t.Errorf("serial run started %d tasks after failure at index 3, want 4", got)
	}
}
