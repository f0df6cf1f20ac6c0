package engine

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"pegflow/internal/dax"
	"pegflow/internal/kickstart"
	"pegflow/internal/planner"
	"pegflow/internal/sim/rng"
)

// chaosExecutor runs jobs on a virtual clock, failing and evicting
// attempts according to a seeded random schedule, and counts what it did
// so the engine's accounting can be checked exactly.
type chaosExecutor struct {
	rng            *rng.Stream
	now            float64
	queue          []Event
	failP, evictP  float64
	fails, evicts  int
	finishes       int
	deliveredTypes map[string]int
}

func newChaosExecutor(seed uint64, failP, evictP float64) *chaosExecutor {
	return &chaosExecutor{
		rng:            rng.New(seed).Derive("chaos"),
		failP:          failP,
		evictP:         evictP,
		deliveredTypes: make(map[string]int),
	}
}

func (c *chaosExecutor) Now() float64 { return c.now }

func (c *chaosExecutor) Submit(job *planner.Job, attempt int) {
	submit := c.now
	end := submit + 0.5 + c.rng.Float64()*10
	typ := EventFinished
	status := kickstart.StatusSuccess
	switch r := c.rng.Float64(); {
	case r < c.failP:
		typ, status = EventFailed, kickstart.StatusFailed
		c.fails++
	case r < c.failP+c.evictP:
		typ, status = EventEvicted, kickstart.StatusEvicted
		c.evicts++
	default:
		c.finishes++
	}
	rec := &kickstart.Record{
		JobID:          job.ID,
		Transformation: job.Transformation,
		Site:           job.Site,
		Attempt:        attempt,
		SubmitTime:     submit,
		SetupStart:     submit,
		ExecStart:      submit,
		EndTime:        end,
		Status:         status,
	}
	c.queue = append(c.queue, Event{JobID: job.ID, Type: typ, Time: end, Record: rec})
}

// Next pops the event with the earliest end time (FIFO on ties), advancing
// the clock — a tiny deterministic event loop.
func (c *chaosExecutor) Next() Event {
	best := 0
	for i, ev := range c.queue {
		if ev.Time < c.queue[best].Time {
			best = i
		}
	}
	ev := c.queue[best]
	c.queue = append(c.queue[:best], c.queue[best+1:]...)
	if ev.Time > c.now {
		c.now = ev.Time
	}
	c.deliveredTypes[ev.Type.String()]++
	return ev
}

// randomPlan builds a random DAG of n jobs with forward edges of
// probability p, wrapped as a single-site plan on the named site.
func randomPlan(t *testing.T, site string, seed uint64, n int, p float64) *planner.Plan {
	t.Helper()
	r := rng.New(seed).Derive("dag")
	g := dax.New(fmt.Sprintf("stress-%d", seed))
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = fmt.Sprintf("job_%03d", i)
		g.NewJob(ids[i], fmt.Sprintf("t%d", i%4)).Priority = r.Intn(5)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				if err := g.AddDependency(ids[i], ids[j]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	jobs := make([]planner.Job, n)
	for i, id := range ids {
		j := g.Job(id)
		jobs[i] = planner.Job{
			ID:             id,
			Transformation: j.Transformation,
			Site:           site,
			Priority:       j.Priority,
			ExecSeconds:    1 + r.Float64()*5,
		}
	}
	plan, err := planner.Assemble(g, site, jobs)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestEngineStress runs randomized DAGs against random fail/evict
// schedules and checks the engine's invariants exactly:
//
//   - Completed ∪ Unfinished partitions the plan's job IDs;
//   - Evictions equals the evict events the executor produced;
//   - Retries equals non-success events minus permanent failures;
//   - permanently failed jobs and all their descendants are unfinished;
//   - RescueWorkflow is deterministic and sorted.
//
// CI runs the package under -race, exercising the engine loop's data
// structures under the race detector as well.
func TestEngineStress(t *testing.T) {
	configs := []struct {
		failP, evictP float64
		retries       int
	}{
		{0, 0, 0},
		{0.2, 0, 2},
		{0, 0.3, 3},
		{0.25, 0.25, 1},
		{0.6, 0.2, 0},
	}
	for seed := uint64(0); seed < 20; seed++ {
		cfg := configs[seed%uint64(len(configs))]
		name := fmt.Sprintf("seed%d_f%.2f_e%.2f_r%d", seed, cfg.failP, cfg.evictP, cfg.retries)
		t.Run(name, func(t *testing.T) {
			plan := randomPlan(t, "chaos", seed, 30+int(seed%3)*10, 0.08)
			ex := newChaosExecutor(seed, cfg.failP, cfg.evictP)
			res, err := Run(plan, ex, Options{RetryLimit: cfg.retries, MaxActive: 1 + int(seed%7)})
			if err != nil {
				t.Fatal(err)
			}
			checkEngineInvariants(t, plan, ex, res)
			if res.Failovers != 0 {
				t.Errorf("Failovers = %d without a retry policy", res.Failovers)
			}
		})
	}
}

// checkEngineInvariants asserts the engine's exact accounting against the
// chaos executor's counters:
//
//   - Completed ∪ Unfinished partitions the plan's job IDs;
//   - Evictions equals the evict events the executor produced;
//   - Retries equals non-success events minus permanent failures;
//   - permanently failed jobs and all their descendants are unfinished;
//   - RescueWorkflow is deterministic and sorted.
func checkEngineInvariants(t *testing.T, plan *planner.Plan, ex *chaosExecutor, res *Result) {
	t.Helper()

	// Partition invariant.
	all := make(map[string]bool, plan.Graph().Len())
	for _, j := range plan.Graph().Jobs() {
		all[j.ID] = true
	}
	seen := make(map[string]bool)
	for _, id := range append(append([]string(nil), res.Completed...), res.Unfinished...) {
		if !all[id] {
			t.Errorf("result mentions unknown job %q", id)
		}
		if seen[id] {
			t.Errorf("job %q appears twice across Completed/Unfinished", id)
		}
		seen[id] = true
	}
	if len(seen) != plan.Graph().Len() {
		t.Errorf("Completed+Unfinished covers %d of %d jobs", len(seen), plan.Graph().Len())
	}

	// Exact event accounting.
	if res.Evictions != ex.evicts {
		t.Errorf("Evictions = %d, executor evicted %d", res.Evictions, ex.evicts)
	}
	wantRetries := ex.fails + ex.evicts - len(res.PermanentlyFailed)
	if res.Retries != wantRetries {
		t.Errorf("Retries = %d, want fails(%d)+evicts(%d)-permanent(%d) = %d",
			res.Retries, ex.fails, ex.evicts, len(res.PermanentlyFailed), wantRetries)
	}
	if got := res.Log.Len(); got != ex.fails+ex.evicts+ex.finishes {
		t.Errorf("log has %d records, executor produced %d", got, ex.fails+ex.evicts+ex.finishes)
	}
	if res.Success != (len(res.Unfinished) == 0) {
		t.Errorf("Success = %v with %d unfinished", res.Success, len(res.Unfinished))
	}

	// Failure poisoning: a permanently failed job and its descendants
	// never complete.
	unfinished := make(map[string]bool)
	for _, id := range res.Unfinished {
		unfinished[id] = true
	}
	var checkDown func(string)
	checkDown = func(id string) {
		if !unfinished[id] {
			t.Errorf("descendant %q of a permanently failed job completed", id)
			return
		}
		for _, c := range plan.Graph().Children(id) {
			checkDown(c)
		}
	}
	for _, id := range res.PermanentlyFailed {
		checkDown(id)
	}

	// Rescue determinism.
	r1, r2 := res.RescueWorkflow(), res.RescueWorkflow()
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("RescueWorkflow not deterministic: %v vs %v", r1, r2)
	}
	if !sort.StringsAreSorted(r1) {
		t.Errorf("RescueWorkflow not sorted: %v", r1)
	}
	want := append([]string(nil), res.Unfinished...)
	sort.Strings(want)
	if !reflect.DeepEqual(r1, want) {
		t.Errorf("RescueWorkflow = %v, want sorted Unfinished %v", r1, want)
	}
}

// flipSite is a deterministic cross-site retry policy for the chaos world:
// every retry re-targets the job to the other of two sites.
func flipSite(job *planner.Job, attempt int, lastSite string, evicted bool) *planner.Job {
	nj := *job
	if lastSite == "chaosA" {
		nj.Site = "chaosB"
	} else {
		nj.Site = "chaosA"
	}
	return &nj
}

// TestEngineStressFailover reruns the randomized stress schedule with a
// cross-site retry policy and checks that failover preserves every
// invariant the same-site stress test pins, plus the failover-specific
// ones: every retry is re-sited, attempt sites alternate, per-attempt
// records carry the re-targeted site, and the whole run — rescue list
// included — is deterministic.
func TestEngineStressFailover(t *testing.T) {
	configs := []struct {
		failP, evictP float64
		retries       int
	}{
		{0.3, 0, 3},
		{0, 0.35, 4},
		{0.25, 0.25, 2},
		{0.5, 0.3, 1},
	}
	for seed := uint64(0); seed < 16; seed++ {
		cfg := configs[seed%uint64(len(configs))]
		name := fmt.Sprintf("seed%d_f%.2f_e%.2f_r%d", seed, cfg.failP, cfg.evictP, cfg.retries)
		t.Run(name, func(t *testing.T) {
			run := func() (*Result, *chaosExecutor) {
				plan := randomPlan(t, "chaosA", seed, 30+int(seed%3)*10, 0.08)
				ex := newChaosExecutor(seed, cfg.failP, cfg.evictP)
				res, err := Run(plan, ex, Options{
					RetryLimit: cfg.retries,
					MaxActive:  1 + int(seed%7),
					Retry:      flipSite,
				})
				if err != nil {
					t.Fatal(err)
				}
				checkEngineInvariants(t, plan, ex, res)
				return res, ex
			}
			res, _ := run()

			// Every retry crossed sites.
			if res.Failovers != res.Retries {
				t.Errorf("Failovers = %d, want every retry re-sited (%d)", res.Failovers, res.Retries)
			}
			// Attempt k of a job runs on the site the policy chose:
			// alternating, starting at chaosA.
			for _, r := range res.Log.Records() {
				want := "chaosA"
				if r.Attempt%2 == 0 {
					want = "chaosB"
				}
				if r.Site != want {
					t.Errorf("job %s attempt %d ran at %s, want %s", r.JobID, r.Attempt, r.Site, want)
				}
			}

			// Full-run determinism: a second run yields the identical
			// result, record for record.
			res2, _ := run()
			if !reflect.DeepEqual(res.RescueWorkflow(), res2.RescueWorkflow()) {
				t.Errorf("rescue list differs across identical runs")
			}
			if res.Makespan != res2.Makespan || res.Retries != res2.Retries ||
				res.Failovers != res2.Failovers || res.Evictions != res2.Evictions {
				t.Errorf("summary differs across identical runs: %+v vs %+v", res, res2)
			}
			if !reflect.DeepEqual(res.Log.Records(), res2.Log.Records()) {
				t.Errorf("kickstart logs differ across identical runs")
			}
		})
	}
}
