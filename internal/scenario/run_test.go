package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// runLines compiles and runs a scenario source with the given workers.
func runLines(t *testing.T, src string, workers int) [][]byte {
	t.Helper()
	lines, err := compileSource(t, "run.json", []byte(src)).Run(RunOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return lines
}

func joinLines(lines [][]byte) []byte {
	return append(bytes.Join(lines, []byte("\n")), '\n')
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	leakCheck(t)
	one := joinLines(runLines(t, minimal, 1))
	eight := joinLines(runLines(t, minimal, 8))
	if !bytes.Equal(one, eight) {
		t.Errorf("output depends on worker count:\n--- workers=1 ---\n%s--- workers=8 ---\n%s", one, eight)
	}
}

func TestRunShape(t *testing.T) {
	lines := runLines(t, minimal, 0)
	if len(lines) != 2+4 {
		t.Fatalf("lines = %d, want header + 4 cells + footer", len(lines))
	}
	var head Header
	if err := json.Unmarshal(lines[0], &head); err != nil {
		t.Fatal(err)
	}
	if head.Scenario != "unit-test" || head.Cells != 4 || len(head.Fingerprint) != 64 {
		t.Errorf("bad header: %+v", head)
	}
	var foot Footer
	if err := json.Unmarshal(lines[len(lines)-1], &foot); err != nil {
		t.Fatal(err)
	}
	if !foot.Done || foot.Cells != 4 {
		t.Errorf("bad footer: %+v", foot)
	}
	for i, line := range lines[1 : len(lines)-1] {
		var row map[string]any
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		if int(row["cell"].(float64)) != i {
			t.Errorf("cell %d out of order: %v", i, row["cell"])
		}
		for _, key := range []string{"makespan_s", "success", "kickstart_p50", "kickstart_p99", "waiting_p50"} {
			if _, ok := row[key]; !ok {
				t.Errorf("cell %d missing %q: %s", i, key, line)
			}
		}
		if row["makespan_s"].(float64) <= 0 {
			t.Errorf("cell %d: non-positive makespan: %s", i, line)
		}
	}
}

func TestRunStreamsInOrder(t *testing.T) {
	leakCheck(t)
	doc, err := Parse("run.json", []byte(minimal))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(doc)
	if err != nil {
		t.Fatal(err)
	}
	var streamed [][]byte
	lines, err := c.Run(RunOptions{
		Workers: 4,
		OnBatch: func(batch [][]byte) error {
			for _, line := range batch {
				streamed = append(streamed, append([]byte(nil), line...))
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(joinLines(streamed), joinLines(lines)) {
		t.Error("streamed lines differ from returned lines")
	}
}

func TestRunGateWrapsEveryCell(t *testing.T) {
	leakCheck(t)
	doc, err := Parse("run.json", []byte(minimal))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(doc)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{}, 2)
	var calls atomic.Int32
	_, err = c.Run(RunOptions{
		Workers: 4,
		Gate: func(ctx context.Context, run func()) error {
			select {
			case gate <- struct{}{}:
			case <-ctx.Done():
				return ctx.Err()
			}
			defer func() { <-gate }()
			calls.Add(1)
			run()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Error("gate was never invoked")
	}
}

// A gate that refuses capacity (the context canceled while queued)
// aborts the run without simulating the cell.
func TestRunGateErrorAbortsRun(t *testing.T) {
	leakCheck(t)
	doc, err := Parse("run.json", []byte(minimal))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(doc)
	if err != nil {
		t.Fatal(err)
	}
	lines, err := c.Run(RunOptions{
		Workers: 1,
		Gate: func(ctx context.Context, run func()) error {
			return context.Canceled // never calls run: capacity refused
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Run with refusing gate = %v, want context.Canceled", err)
	}
	if lines != nil {
		t.Error("aborted run still returned lines")
	}
}

// An OnBatch failure (the server's client hung up mid-stream) aborts the
// run: Run returns the write error instead of simulating and formatting
// the remaining cells.
func TestRunOnBatchErrorAborts(t *testing.T) {
	doc, err := Parse("run.json", []byte(minimal))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(doc)
	if err != nil {
		t.Fatal(err)
	}
	broken := errors.New("connection reset")
	delivered := 0
	_, err = c.Run(RunOptions{
		Workers: 1,
		// With one worker and no cache every batch is one line.
		OnBatch: func(batch [][]byte) error {
			delivered++
			if delivered > 2 { // header + first cell, then the pipe breaks
				return broken
			}
			return nil
		},
	})
	if !errors.Is(err, broken) {
		t.Errorf("Run with failing OnBatch = %v, want the write error", err)
	}
	if delivered != 3 {
		t.Errorf("OnBatch called %d times after the failure, want exactly 3 (the failing call is the last)", delivered)
	}
}

// mapCache is an in-test ResultCache recording traffic.
type mapCache struct {
	mu   sync.Mutex
	m    map[string][]byte
	hits int
	puts int
}

func newMapCache() *mapCache { return &mapCache{m: make(map[string][]byte)} }

func (mc *mapCache) key(fp string, cell int) string { return fp + "/" + strconv.Itoa(cell) }

func (mc *mapCache) Get(fp string, cell int) ([]byte, bool) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	line, ok := mc.m[mc.key(fp, cell)]
	if ok {
		mc.hits++
	}
	return line, ok
}

func (mc *mapCache) Put(fp string, cell int, line []byte) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	mc.puts++
	mc.m[mc.key(fp, cell)] = line
}

// TestRunServesFromCache is the cache acceptance property at the
// scenario layer: a second run of the same compiled document serves
// every cell from the cache — the gate (i.e. the simulation pool) is
// never entered — and the NDJSON bytes equal the fresh run's exactly.
func TestRunServesFromCache(t *testing.T) {
	doc, err := Parse("run.json", []byte(minimal))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(doc)
	if err != nil {
		t.Fatal(err)
	}
	cache := newMapCache()
	var gated atomic.Int32
	gate := func(ctx context.Context, run func()) error {
		gated.Add(1)
		run()
		return nil
	}
	cold, err := c.Run(RunOptions{Workers: 4, Cache: cache, Gate: gate})
	if err != nil {
		t.Fatal(err)
	}
	if cache.puts != len(c.Cells) {
		t.Fatalf("cold run stored %d lines, want %d", cache.puts, len(c.Cells))
	}
	coldGated := gated.Load()
	if coldGated != int32(len(c.Cells)) {
		t.Fatalf("cold run gated %d cells, want %d", coldGated, len(c.Cells))
	}

	warm, err := c.Run(RunOptions{Workers: 4, Cache: cache, Gate: gate})
	if err != nil {
		t.Fatal(err)
	}
	if gated.Load() != coldGated {
		t.Errorf("warm run entered the gate %d times, want 0 (cache hits skip simulation)", gated.Load()-coldGated)
	}
	if cache.hits != len(c.Cells) {
		t.Errorf("warm run hit the cache %d times, want %d", cache.hits, len(c.Cells))
	}
	if !bytes.Equal(joinLines(cold), joinLines(warm)) {
		t.Errorf("cached output differs from fresh output:\n--- fresh ---\n%s--- cached ---\n%s",
			joinLines(cold), joinLines(warm))
	}
}

// countingCache is a ResultCache holding the lines of some cells of one
// document, counting every Get and Put by cell.
type countingCache struct {
	mu          sync.Mutex
	fingerprint string
	lines       map[int][]byte
	gets, puts  map[int]int
}

func (cc *countingCache) Get(fp string, cell int) ([]byte, bool) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if fp != cc.fingerprint {
		return nil, false
	}
	cc.gets[cell]++
	line, ok := cc.lines[cell]
	return line, ok
}

func (cc *countingCache) Put(fp string, cell int, line []byte) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if fp == cc.fingerprint {
		cc.puts[cell]++
		cc.lines[cell] = line
	}
}

// TestRunLooksUpEachCellOnce: with cached cells before, between and after
// the misses, Run asks the cache for every cell exactly once, stores only
// the cells it simulated, and its lines — returned and streamed — are the
// bytes of a run with no cache, at any worker count.
func TestRunLooksUpEachCellOnce(t *testing.T) {
	leakCheck(t)
	c := compileSource(t, "run.json", []byte(minimal))
	cold, err := c.Run(RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := joinLines(cold)
	for _, workers := range []int{1, 8} {
		cache := &countingCache{
			fingerprint: c.Fingerprint,
			lines:       make(map[int][]byte),
			gets:        make(map[int]int),
			puts:        make(map[int]int),
		}
		for i := 0; i < len(c.Cells); i += 2 {
			cache.lines[i] = cold[i+1]
		}
		var streamed [][]byte
		lines, err := c.Run(RunOptions{
			Workers: workers,
			Cache:   cache,
			OnBatch: func(batch [][]byte) error {
				streamed = append(streamed, batch...)
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := joinLines(lines); !bytes.Equal(got, want) {
			t.Errorf("workers %d: returned lines differ from a run with no cache:\n--- got ---\n%s--- want ---\n%s", workers, got, want)
		}
		if got := joinLines(streamed); !bytes.Equal(got, want) {
			t.Errorf("workers %d: streamed lines differ from a run with no cache:\n--- got ---\n%s--- want ---\n%s", workers, got, want)
		}
		for i := range c.Cells {
			wantPuts := i % 2 // the odd cells missed
			if cache.gets[i] != 1 || cache.puts[i] != wantPuts {
				t.Errorf("workers %d: cell %d: %d gets and %d puts, want 1 and %d",
					workers, i, cache.gets[i], cache.puts[i], wantPuts)
			}
		}
	}
}

// A canceled context aborts the run instead of simulating unread cells
// (the server passes the request context here).
func TestRunHonorsContextCancellation(t *testing.T) {
	leakCheck(t)
	doc, err := Parse("run.json", []byte(minimal))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(doc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = c.Run(RunOptions{Workers: 2, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Run with canceled context = %v, want context.Canceled", err)
	}
}

// A single-site set crossed with a multi-policy axis must not emit one
// identical cell per policy.
func TestSingleSiteSetsCollapsePolicyAxis(t *testing.T) {
	src := `{
  "version": 1,
  "name": "mixed",
  "sites": [{"preset": "sandhills", "slots": 8}, {"preset": "osg", "slots": 8}],
  "site_sets": [["sandhills"], ["sandhills", "osg"]],
  "workload": {"params": {"num_clusters": 50, "max_cluster_size": 30, "size_exponent": 0.5, "mean_read_len": 800}, "n": [2]},
  "policies": {"site": ["round-robin", "data-aware"]}
}`
	doc, err := Parse("mixed.json", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(doc)
	if err != nil {
		t.Fatal(err)
	}
	// 1 cell for the single-site set (policy collapsed) + 2 for the pair.
	if len(c.Cells) != 3 {
		t.Fatalf("cells = %d, want 3 (no duplicate single-site cells)", len(c.Cells))
	}
	if c.Cells[0].Policy != "" || len(c.Cells[0].SiteSet) != 1 {
		t.Errorf("cell 0 = %+v, want single-site with empty policy", c.Cells[0])
	}
	if c.Cells[1].Policy != "round-robin" || c.Cells[2].Policy != "data-aware" {
		t.Errorf("multi-site cells lost their policy axis: %+v / %+v", c.Cells[1], c.Cells[2])
	}
}

// An oversized axis product must trip the cell cap, not wrap around it.
func TestCellCountOverflowSaturates(t *testing.T) {
	big := strings.Repeat(`["sandhills"],`, 2048)
	src := `{
  "version": 1,
  "name": "overflow",
  "sites": [{"preset": "sandhills"}],
  "site_sets": [` + big + `["sandhills"]],
  "workload": {"preset": "paper",
    "n": [` + strings.Repeat("1,", 2047) + `1],
    "seeds": [` + strings.Repeat("1,", 2047) + `1]},
  "policies": {"failover": [` + strings.Repeat("false,", 2047) + `false]}
}`
	_, err := Parse("overflow.json", []byte(src))
	if err == nil || !strings.Contains(err.Error(), "more than the limit") {
		t.Fatalf("overflowing grid not rejected by the cell cap: %v", err)
	}
}

// The general (ensemble) path and the policy matrix: two sites, policy ×
// failover grid, an ensemble of 3 members.
const matrix = `{
  "version": 1,
  "name": "matrix",
  "sites": [
    {"name": "fast", "slots": 16, "speed_factor": 1.0, "dispatch_mean": 5, "dispatch_cv": 0.3},
    {"name": "slow", "slots": 16, "speed_factor": 2.5, "speed_jitter": 0.25, "dispatch_mean": 40,
     "dispatch_cv": 0.8, "preinstalled": false, "install_mb": 80, "setup_mean": 60, "setup_cv": 0.4,
     "setup_mbps": 5, "eviction_rate": 0.00005, "stage_in_mbps": 20}
  ],
  "workload": {"params": {"num_clusters": 150, "max_cluster_size": 50, "size_exponent": 0.5, "mean_read_len": 800},
               "n": [6], "seeds": [3]},
  "policies": {"site": ["round-robin", "data-aware"], "failover": [false, true]},
  "ensemble": {"workflows": 3},
  "outputs": {"fields": ["makespan_s", "mean_workflow_makespan_s", "retries", "evictions", "failovers", "success"]}
}`

func TestMatrixEnsembleCells(t *testing.T) {
	one := runLines(t, matrix, 1)
	many := runLines(t, matrix, 8)
	if !bytes.Equal(joinLines(one), joinLines(many)) {
		t.Fatal("matrix output depends on worker count")
	}
	// 1 set × 1 n × 1 seed × 2 policies × 1 cluster × 2 failover.
	cells := one[1 : len(one)-1]
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(cells))
	}
	seen := map[string]bool{}
	for _, line := range cells {
		var row map[string]any
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatal(err)
		}
		if row["workflows"].(float64) != 3 {
			t.Errorf("workflows = %v, want 3", row["workflows"])
		}
		key := row["policy"].(string)
		if row["failover"].(bool) {
			key += "+failover"
		}
		seen[key] = true
		if _, ok := row["cumulative_kickstart_s"]; ok {
			t.Error("field filter failed: cumulative_kickstart_s not requested")
		}
	}
	for _, k := range []string{"round-robin", "round-robin+failover", "data-aware", "data-aware+failover"} {
		if !seen[k] {
			t.Errorf("missing matrix cell %s", k)
		}
	}
}

// warmMatrix sweeps what the multi-site plan cache shares a master across:
// seeds, the three site policies and the three clustering modes.
const warmMatrix = `{
  "version": 1,
  "name": "warm-matrix",
  "sites": [
    {"name": "fast", "slots": 16, "speed_factor": 1.0, "dispatch_mean": 5, "dispatch_cv": 0.3},
    {"name": "slow", "slots": 16, "speed_factor": 2.5, "speed_jitter": 0.25, "dispatch_mean": 40,
     "dispatch_cv": 0.8, "preinstalled": false, "install_mb": 80, "setup_mean": 60, "setup_cv": 0.4,
     "setup_mbps": 5, "eviction_rate": 0.00005, "stage_in_mbps": 20}
  ],
  "workload": {"params": {"num_clusters": 150, "max_cluster_size": 50, "size_exponent": 0.5, "mean_read_len": 800},
               "n": [12], "seeds": [3, 4, 5]},
  "policies": {"site": ["round-robin", "data-aware", "runtime-aware"],
               "cluster": [{}, {"target_seconds": 600}, {"max_tasks": 3}],
               "failover": [true]},
  "ensemble": {"workflows": 2}
}`

// TestEnsembleCellsColdWarmAndWorkers: ensemble cell bytes do not depend on
// whether the plan caches are cold or warm — so not on which cell's seed
// resolved the shared master either — nor on the worker count.
func TestEnsembleCellsColdWarmAndWorkers(t *testing.T) {
	leakCheck(t)
	ResetPlanCache()
	before := PlanCacheStats()
	cold1 := joinLines(runLines(t, warmMatrix, 1))
	afterCold := PlanCacheStats()
	warm1 := joinLines(runLines(t, warmMatrix, 1))
	warm8 := joinLines(runLines(t, warmMatrix, 8))
	afterWarm := PlanCacheStats()
	ResetPlanCache()
	cold8 := joinLines(runLines(t, warmMatrix, 8))
	for name, got := range map[string][]byte{"warm, 1 worker": warm1, "warm, 8 workers": warm8, "cold, 8 workers": cold8} {
		if !bytes.Equal(cold1, got) {
			t.Errorf("%s: output differs from the cold 1-worker run:\n--- cold ---\n%s--- got ---\n%s", name, cold1, got)
		}
	}
	if got := afterCold.PlanBuilds - before.PlanBuilds; got != 1 {
		t.Errorf("cold run resolved %d masters for its 27 cells, want 1", got)
	}
	if b, s := afterWarm.PlanBuilds-afterCold.PlanBuilds, afterWarm.PlanShapes-afterCold.PlanShapes; b != 0 || s != 0 {
		t.Errorf("warm runs resolved %d masters and materialized %d graphs, want 0 and 0", b, s)
	}
}

// A document whose only site loses every slot at time zero, with no later
// raise, deadlocks its cell: the run fails with the ensemble's deadlock
// error instead of panicking or hanging.
func TestRunReportsDeadlockedCell(t *testing.T) {
	const src = `{
  "version": 1,
  "name": "dry-kernel",
  "sites": [{"preset": "sandhills", "slots": 8}],
  "workload": {
    "params": {"num_clusters": 50, "max_cluster_size": 20, "size_exponent": 0.5, "mean_read_len": 900},
    "n": [4],
    "seeds": [7]
  },
  "faults": [{"type": "capacity", "site": "sandhills", "at": 0, "slots": 0}]
}`
	c := compileSource(t, "dry.json", []byte(src))
	done := make(chan error, 1)
	go func() { _, err := c.Run(RunOptions{Workers: 1}); done <- err }()
	select {
	case err := <-done:
		if want := "cell 0: ensemble: deadlock: 1 workflows active with no platform events"; err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Run error = %v, want one containing %q", err, want)
		}
	case <-time.After(time.Minute):
		t.Fatal("Run did not return within a minute")
	}
}
