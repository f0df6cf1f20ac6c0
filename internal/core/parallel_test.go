package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"pegflow/internal/pool"
)

func TestForEachTaskRunsEveryIndexOnce(t *testing.T) {
	const n = 100
	var counts [n]atomic.Int32
	if err := pool.ForEach(7, n, func(i int) error {
		counts[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Errorf("index %d ran %d times", i, c)
		}
	}
}

func TestForEachTaskBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	if err := pool.ForEach(workers, 64, func(i int) error {
		c := cur.Add(1)
		defer cur.Add(-1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				return nil
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

func TestForEachTaskPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	err := pool.ForEach(4, 32, func(i int) error {
		if i == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want %v", err, boom)
	}
}

func TestForEachTaskSerialStopsAtFirstError(t *testing.T) {
	var calls int
	err := pool.ForEach(1, 32, func(i int) error {
		calls++
		if i == 3 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil || calls != 4 {
		t.Errorf("calls = %d (err %v), want 4 calls and an error", calls, err)
	}
}

func TestForEachTaskEdgeCases(t *testing.T) {
	if err := pool.ForEach(4, 0, func(int) error { t.Error("fn called"); return nil }); err != nil {
		t.Fatal(err)
	}
	// workers <= 0 defaults to NumCPU; must still cover everything.
	var ran atomic.Int32
	if err := pool.ForEach(0, 10, func(int) error { ran.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 10 {
		t.Errorf("ran %d of 10 tasks with default workers", ran.Load())
	}
}

// TestMonteCarloParallelSerialEquivalence is the tentpole guarantee: the
// sweep output is bit-for-bit identical no matter how many workers run it.
func TestMonteCarloParallelSerialEquivalence(t *testing.T) {
	opts := SweepOptions{NValues: []int{10, 100}}
	opts.Workers = 1
	serial, err := MonteCarloSweep(canonicalSeed, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 8
	parallel, err := MonteCarloSweep(canonicalSeed, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("sweeps differ:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	sj, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.Marshal(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj, pj) {
		t.Errorf("serialized sweeps not byte-identical:\nserial:   %s\nparallel: %s", sj, pj)
	}
}

func TestRunAllParallelSerialEquivalence(t *testing.T) {
	se := DefaultExperiment(canonicalSeed)
	se.Workers = 1
	serial, err := se.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	pe := DefaultExperiment(canonicalSeed)
	pe.Workers = 8
	parallel, err := pe.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if s, p := serial.Serial.WallTime(), parallel.Serial.WallTime(); s != p {
		t.Errorf("serial baseline differs: %v vs %v", s, p)
	}
	for _, pf := range Platforms {
		for _, n := range PaperNValues {
			a, b := serial.Runs[pf][n], parallel.Runs[pf][n]
			if a.WallTime() != b.WallTime() {
				t.Errorf("%s n=%d wall differs: %v vs %v", pf, n, a.WallTime(), b.WallTime())
			}
			if !reflect.DeepEqual(a.Summary, b.Summary) {
				t.Errorf("%s n=%d summaries differ", pf, n)
			}
			if !reflect.DeepEqual(a.PerTask, b.PerTask) {
				t.Errorf("%s n=%d per-task stats differ", pf, n)
			}
			if a.Result.Retries != b.Result.Retries || a.Result.Evictions != b.Result.Evictions {
				t.Errorf("%s n=%d retries/evictions differ", pf, n)
			}
		}
	}
}

func TestSweepProgress(t *testing.T) {
	var mu sync.Mutex
	var seen []int
	wantTotal := 3 * (1 + 2*1) // 3 reps × (serial + 2 platforms × 1 n)
	_, err := MonteCarloSweep(canonicalSeed, 3, SweepOptions{
		NValues: []int{10},
		Workers: 4,
		Progress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if total != wantTotal {
				t.Errorf("total = %d, want %d", total, wantTotal)
			}
			seen = append(seen, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != wantTotal {
		t.Fatalf("progress called %d times, want %d", len(seen), wantTotal)
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("progress done sequence %v not monotonic", seen)
		}
	}
}

func TestMonteCarloSweepValidation(t *testing.T) {
	if _, err := MonteCarloSweep(1, 0, SweepOptions{}); err == nil {
		t.Error("zero runs accepted")
	}
	_, err := MonteCarloSweep(1, 1, SweepOptions{
		Platforms: []string{"mainframe"}, NValues: []int{10}, Workers: 4,
	})
	if err == nil {
		t.Error("unknown platform accepted")
	}
}
