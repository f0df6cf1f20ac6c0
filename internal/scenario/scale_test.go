package scenario

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"pegflow/internal/ensemble"
	"pegflow/internal/planner"
	"pegflow/internal/sim/platform"
	"pegflow/internal/workflow"
)

// scaleBigN returns the job count for the big side of the scale
// assertions: 3·10^4 by default so the suite (and the race-detector CI
// job) stays fast, raised to 10^6 in the dedicated CI scale-smoke step
// via PEGFLOW_SCALE_N.
func scaleBigN(tb testing.TB) int {
	if v := os.Getenv("PEGFLOW_SCALE_N"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			tb.Fatalf("bad PEGFLOW_SCALE_N=%q", v)
		}
		return n
	}
	return 30000
}

// scaleRetryLimit is the retry budget of the scale runs. The workflow's
// serial bottleneck jobs (split and merge run for MergePerFile·n ≈ 4·10^5
// simulated seconds at n=10^5) face OSG's 1/EvictionRate = 200,000 s mean
// time to eviction, so each attempt completes with probability e^-2 or
// worse and the paper's single-digit retry limits turn the run into a
// permanent failure — the model is behaving correctly: opportunistic
// pools really do starve long-running monoliths. A deep retry budget is
// the single-site experiment answer up to n≈5·10^5; beyond that (merge
// survival e^-20 at n=10^6) no budget helps and the run must fail over
// to a stable site (TestMillionJobScale). Runs stay deterministic: the
// eviction draws come from the platform's seeded streams.
const scaleRetryLimit = 1000

// retainedByRun measures the heap bytes a single aggregated run leaves
// behind when only its kickstart log survives: the plan cache is warmed
// first (the plan is the run's O(n) input, not its working set), then one
// run executes and everything but res.Result.Log is dropped. The
// difference between the post-GC heap before and after is the run's own
// retention, which aggregation makes independent of n.
func retainedByRun(t *testing.T, aggregate bool, n int) (bytes uint64, attempts int) {
	t.Helper()
	e := paperOnSite(t, 42, "osg", n, planner.ClusterOptions{})
	e.Aggregate, e.RetryLimit = aggregate, scaleRetryLimit
	singleSitePlan(t, e)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	r := res.Workflows[0].Result
	if len(r.Unfinished) != 0 {
		t.Fatalf("n=%d run did not complete: %d jobs unfinished, %d permanently failed",
			n, len(r.Unfinished), len(r.PermanentlyFailed))
	}
	log := r.Log
	res, r = nil, nil
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	attempts = log.Len()
	runtime.KeepAlive(log)
	if after.HeapAlloc <= before.HeapAlloc {
		return 0, attempts
	}
	return after.HeapAlloc - before.HeapAlloc, attempts
}

// BenchmarkWarmCell times a warm aggregated OSG cell of big_run's shape
// (600 OSG slots, the scale retry budget) at n = 500 and n = 10^5, each run
// on the storage the run before it released, and reports ns and allocations
// per attempt: the n-curve of the run path, engine included, without the
// repository benchmark. One untimed run first fills the plan cache and the
// free lists.
func BenchmarkWarmCell(b *testing.B) {
	world, err := workflow.NewWorld(workflow.PaperSites(300, 600))
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{500, 100000} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			e := onSite(world, 42, workflow.PaperWorkload(42), "osg", n, planner.ClusterOptions{})
			e.Aggregate, e.RetryLimit = true, scaleRetryLimit
			run := func() int {
				res, err := e.Run()
				if err != nil {
					b.Fatal(err)
				}
				attempts := res.Workflows[0].Result.Log.Len()
				res.Release()
				return attempts
			}
			run()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			attempts := 0
			for i := 0; i < b.N; i++ {
				attempts += run()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(attempts), "ns/attempt")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(attempts), "allocs/attempt")
		})
	}
}

// TestAggregatedRunRetention asserts the memory-flat property on the
// single-site path: an aggregated OSG run at n=3·10^4 must retain no
// more than 2× the heap an n=10^4 run retains, plus a fixed 1 MiB
// measurement allowance — run retention is independent of n. The plan
// itself is the run's input and stays O(n); what this asserts is that
// executing attempts no longer costs resident records. An exact-mode run
// at n=10^4 is measured as the contrast case: it must retain at least 5×
// the aggregated big-run's bytes, proving the probe would catch a
// retention regression.
func TestAggregatedRunRetention(t *testing.T) {
	if testing.Short() {
		t.Skip("scale measurement under -short")
	}
	const small, big = 10000, 30000

	smallBytes, smallAttempts := retainedByRun(t, true, small)
	bigBytes, bigAttempts := retainedByRun(t, true, big)
	t.Logf("aggregated retention: n=%d → %d B (%d attempts); n=%d → %d B (%d attempts)",
		small, smallBytes, smallAttempts, big, bigBytes, bigAttempts)

	const slack = 1 << 20
	if bigBytes > 2*smallBytes+slack {
		t.Errorf("aggregated retention grew with n: %d B at n=%d vs %d B at n=%d",
			bigBytes, big, smallBytes, small)
	}

	exactBytes, exactAttempts := retainedByRun(t, false, small)
	t.Logf("exact retention: n=%d → %d B (%d attempts)", small, exactBytes, exactAttempts)
	if exactBytes < 5*(bigBytes+1) {
		t.Errorf("exact-mode run at n=%d retained only %d B — the probe cannot see record retention",
			small, exactBytes)
	}
}

// scaleSpecs plans one n-chunk paper workflow across the two-site world
// (Sandhills + OSG) with cross-site failover — the paper's hierarchical
// execution model, and the only configuration that completes at n=10^6:
// the terminal merge job runs for MergePerFile·n ≈ 4·10^6 simulated
// seconds, which survives OSG eviction with probability e^-20 per
// attempt, so it must fail over to the never-preempting campus cluster.
func scaleSpecs(tb testing.TB, n int) ([]ensemble.Spec, []platform.Config) {
	tb.Helper()
	e, err := paperEnsemble(42, 1, n, planner.PolicyRuntimeAware)
	if err != nil {
		tb.Fatal(err)
	}
	e.Failover = true
	e.RetryLimit = scaleRetryLimit
	abstract, err := workflow.BuildDAX(workflow.BuilderConfig{N: n, Workload: workflow.PaperWorkload(42)})
	if err != nil {
		tb.Fatal(err)
	}
	srcs := []ensemble.WorkflowSource{{Name: "wf00", Abstract: abstract, Priority: 1, RetryLimit: e.RetryLimit}}
	specs, err := ensemble.PlanAll(srcs, e.World.Catalogs(), ensemble.PlanOptions{
		Sites:    e.Sites,
		Policy:   e.Policy,
		Failover: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	cfgs, err := e.World.Configs(e.Sites, PlatformSeed(e.Seed, e.N))
	if err != nil {
		tb.Fatal(err)
	}
	return specs, cfgs
}

// retainedByScaleRun plans an n-job two-site workflow, then measures the
// heap bytes one execution of it retains: the pre-built specs (the run's
// O(n) input) stay alive on both sides of the measurement while the pool
// — like the executor a single-site cell builds and drops inside
// EnsembleExperiment.Run — is released with the run, so the post-GC heap delta is
// what the run hands its caller: the member log.
func retainedByScaleRun(t *testing.T, n int, aggregate bool) (bytes uint64, attempts int) {
	t.Helper()
	specs, cfgs := scaleSpecs(t, n)
	p, err := platform.NewMultiExecutor(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := ensemble.Run(p, specs, ensemble.Options{Aggregate: aggregate})
	if err != nil {
		t.Fatal(err)
	}
	wr := res.Workflows[0].Result
	if !wr.Success || len(wr.Unfinished) != 0 {
		t.Fatalf("n=%d two-site run did not complete: success=%v, %d jobs unfinished, %d permanently failed",
			n, wr.Success, len(wr.Unfinished), len(wr.PermanentlyFailed))
	}
	log := wr.Log
	res, wr, p = nil, nil, nil
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	attempts = log.Len()
	runtime.KeepAlive(log)
	runtime.KeepAlive(specs)
	if after.HeapAlloc <= before.HeapAlloc {
		return 0, attempts
	}
	return after.HeapAlloc - before.HeapAlloc, attempts
}

// checkPeakRSS enforces the scale-smoke memory ceiling: when
// PEGFLOW_SCALE_MAXRSS_MB is set, the process's peak resident set
// (VmHWM from /proc/self/status) must stay under it. The ceiling covers
// the O(n) plan — the run's input — so it bounds absolute memory while
// the retention assertions bound growth; together they catch both a
// record-retention regression and a planning-memory blowup.
func checkPeakRSS(t *testing.T) {
	t.Helper()
	limit := os.Getenv("PEGFLOW_SCALE_MAXRSS_MB")
	if limit == "" {
		return
	}
	mb, err := strconv.Atoi(limit)
	if err != nil || mb <= 0 {
		t.Fatalf("bad PEGFLOW_SCALE_MAXRSS_MB=%q", limit)
	}
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Logf("peak RSS unavailable: %v", err)
		return
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.Atoi(fields[1])
		if err != nil {
			break
		}
		t.Logf("peak RSS %d MiB (ceiling %d MiB)", kb/1024, mb)
		if kb > mb*1024 {
			t.Errorf("peak RSS %d MiB exceeds the %d MiB scale-smoke ceiling", kb/1024, mb)
		}
		return
	}
	t.Log("peak RSS unavailable: no VmHWM in /proc/self/status")
}

// TestMillionJobScale is the acceptance gate for the memory-flat big-run
// path at full scale: an aggregated run of the big n (3·10^4 locally,
// 10^6 in the CI scale-smoke step) on the two-site failover world must
// complete every job and retain no more than 2× the heap an n=10^4 run
// retains, plus a fixed 1 MiB measurement allowance. The two-site world
// is not a concession: at n=10^6 the serial merge outlives OSG's mean
// time to eviction 20-fold, so the opportunistic pool alone can never
// finish — exactly the paper's reason for pairing the campus cluster
// with the grid. An exact-mode run at n=10^4 is the contrast case
// proving the probe sees record retention.
func TestMillionJobScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale measurement under -short")
	}
	big := scaleBigN(t)
	const small = 10000

	smallBytes, smallAttempts := retainedByScaleRun(t, small, true)
	bigBytes, bigAttempts := retainedByScaleRun(t, big, true)
	t.Logf("aggregated two-site retention: n=%d → %d B (%d attempts); n=%d → %d B (%d attempts)",
		small, smallBytes, smallAttempts, big, bigBytes, bigAttempts)
	if bigAttempts < big {
		t.Errorf("n=%d run executed only %d attempts", big, bigAttempts)
	}

	const slack = 1 << 20
	if bigBytes > 2*smallBytes+slack {
		t.Errorf("aggregated retention grew with n: %d B at n=%d vs %d B at n=%d",
			bigBytes, big, smallBytes, small)
	}

	exactBytes, exactAttempts := retainedByScaleRun(t, small, false)
	t.Logf("exact two-site retention: n=%d → %d B (%d attempts)", small, exactBytes, exactAttempts)
	if exactBytes < 5*(bigBytes+1) {
		t.Errorf("exact-mode run at n=%d retained only %d B — the probe cannot see record retention",
			small, exactBytes)
	}

	checkPeakRSS(t)
}
