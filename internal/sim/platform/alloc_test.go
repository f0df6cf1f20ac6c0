package platform

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pegflow/internal/catalog"
	"pegflow/internal/engine"
	"pegflow/internal/fault"
	"pegflow/internal/planner"
)

// The allocation gate of the attempt path (run by CI as `go test -run
// 'TestAllocs'`): from Submit to its terminal event an attempt is a slab
// record and typed kernel events, so a reserved executor allocates nothing
// per attempt. The tests drive the executor the way the engine does —
// submit everything, take events, retry evictions, recycle records — but
// without the engine, whose own bookkeeping is gated in its package.

const allocJobs = 512

// allocTestJobs builds a flat batch of jobs for one site, and the index of
// each by ID.
func allocTestJobs(site string) (jobs []planner.Job, index map[string]int) {
	jobs = make([]planner.Job, allocJobs)
	index = make(map[string]int, allocJobs)
	for i := range jobs {
		jobs[i] = planner.Job{
			ID: fmt.Sprintf("%s-J%03d", site, i), Transformation: "work", Site: site,
			ExecSeconds: 200, NeedsInstall: true, InstallBytes: 10e6,
		}
		index[jobs[i].ID] = i
	}
	return jobs, index
}

// allocsPerAttempt runs pass once to warm the slabs, arenas and node names
// to their high-water marks, then measures it; pass returns the number of
// attempts it ran.
func allocsPerAttempt(pass func() int) (perAttempt float64, attempts int) {
	allocs := testing.AllocsPerRun(3, func() { attempts = pass() })
	return allocs / float64(attempts), attempts
}

func TestAllocsPlatformAttempt(t *testing.T) {
	t.Run("single-site", func(t *testing.T) {
		ex, err := NewExecutor(Config{
			Name: "grid", Slots: 16, SubmitInterval: 0.5, DispatchMean: 20, DispatchCV: 0.8,
			SpeedFactor: 1, SpeedJitter: 0.2, SetupMean: 30, SetupCV: 0.5,
			EvictionRate: 1.0 / 600, InitialSlots: 4, SlotRampInterval: 40, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		ex.Reserve(allocJobs)
		jobs, index := allocTestJobs("grid")
		evictions := 0
		per, attempts := allocsPerAttempt(func() int {
			for i := range jobs {
				ex.Submit(&jobs[i], 1)
			}
			attempts := 0
			for left := len(jobs); left > 0; {
				ev := ex.Next()
				attempts++
				retry := ev.Record.Attempt + 1
				ex.Recycle(ev.Record)
				if ev.Type == engine.EventEvicted {
					evictions++
					ex.Submit(&jobs[index[ev.JobID]], retry)
					continue
				}
				left--
			}
			return attempts
		})
		if evictions == 0 {
			t.Fatal("fixture broken: no evictions, so no retries were measured")
		}
		t.Logf("%.4f allocations per attempt over %d attempts", per, attempts)
		if per > 0.05 {
			t.Errorf("%.3f allocations per attempt over %d attempts, want <= 0.05", per, attempts)
		}
	})

	t.Run("two-site with faults and backoff", func(t *testing.T) {
		pool, err := NewMultiExecutor(stormyConfigs())
		if err != nil {
			t.Fatal(err)
		}
		// A timeline long enough to cover every pass: a standing storm (the
		// hazard path on every flaky attempt), and an outage, a blackout and
		// a capacity dip on the stable site recurring every 5000 s.
		specs := []fault.Spec{{Type: "storm", Site: "flaky", At: 0, Duration: 1e7, Multiplier: 2, KillFraction: 0.2}}
		for at := 1000.0; at < 1e6; at += 5000 {
			specs = append(specs,
				fault.Spec{Type: "outage", Site: "stable", At: at, Duration: 300},
				fault.Spec{Type: "blackout", Site: "flaky", At: at + 1000, Duration: 200},
				fault.Spec{Type: "capacity", Site: "stable", At: at + 2000, Slots: intp(3)},
				fault.Spec{Type: "capacity", Site: "stable", At: at + 3000, Slots: intp(8)})
		}
		script, err := fault.Compile(specs)
		if err != nil {
			t.Fatal(err)
		}
		if err := pool.InstallFaults(script); err != nil {
			t.Fatal(err)
		}
		pool.Reserve(2 * allocJobs)
		// Every job has a twin on the other site; an evicted attempt is
		// retried on the twin after a backoff delay.
		stable, stableIndex := allocTestJobs("stable")
		flaky, flakyIndex := allocTestJobs("flaky")
		twin := func(id string) *planner.Job {
			if i, ok := stableIndex[id]; ok {
				return &flaky[i]
			}
			return &stable[flakyIndex[id]]
		}
		evictions := 0
		per, attempts := allocsPerAttempt(func() int {
			for i := range stable {
				pool.Submit(&stable[i], 1)
				pool.Submit(&flaky[i], 1)
			}
			attempts := 0
			for left := 2 * allocJobs; left > 0; {
				ev := pool.Next()
				attempts++
				retry := ev.Record.Attempt + 1
				pool.Recycle(ev.Record)
				if ev.Type == engine.EventEvicted {
					evictions++
					pool.SubmitAfter(twin(ev.JobID), retry, 30)
					continue
				}
				left--
			}
			return attempts
		})
		if evictions == 0 || pool.Site("stable").Outages() < 2 {
			t.Fatalf("fixture broken: %d evictions, %d outages", evictions, pool.Site("stable").Outages())
		}
		// The budget covers the correlated preemptions: each sorts the
		// occupied attempts' keys, a handful of allocations per outage.
		t.Logf("%.4f allocations per attempt over %d attempts", per, attempts)
		if per > 0.05 {
			t.Errorf("%.3f allocations per attempt over %d attempts, want <= 0.05", per, attempts)
		}
	})
}

// TestNodeNamesAreFormattedOnFirstUse: an executor formats a node label
// when an attempt first lands on that node, not Slots labels up front, and
// the labels are the ones the eager table held.
func TestNodeNamesAreFormattedOnFirstUse(t *testing.T) {
	ex, err := NewExecutor(OSG(11))
	if err != nil {
		t.Fatal(err)
	}
	p := buildPlan(t, &catalog.Site{Name: "osg", Slots: 600, SpeedFactor: 1}, false,
		[]float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100})
	res, err := engine.Run(p, ex, engine.Options{RetryLimit: 3})
	if err != nil {
		t.Fatal(err)
	}
	attempts := res.Log.Len()
	formatted := 0
	for _, name := range ex.nodeNames {
		if name != "" {
			formatted++
		}
	}
	if formatted != attempts {
		t.Errorf("%d node names formatted for %d attempts on a %d-slot platform", formatted, attempts, len(ex.nodeNames))
	}
	seen := map[string]bool{}
	for _, r := range res.Log.Records() {
		seen[r.Node] = true
	}
	// The k-th slot grant lands on node k (the counter is bumped first).
	for k := 1; k <= attempts; k++ {
		if want := fmt.Sprintf("osg-node-%04d", k); !seen[want] {
			t.Errorf("no record on %s; records are on %v", want, seen)
		}
	}
}

// TestFormatNodeNameMatchesSprintf pins the hand-rolled label against the
// fmt verb it replaced, across the zero-padding boundaries, and its cost.
func TestFormatNodeNameMatchesSprintf(t *testing.T) {
	for _, site := range []string{"osg", "sandhills", strings.Repeat("inline-site-", 8)} {
		for _, i := range []int32{0, 9, 10, 999, 1000, 9999, 10000, 123456} {
			if got, want := formatNodeName(site, i), fmt.Sprintf("%s-node-%04d", site, i); got != want {
				t.Errorf("formatNodeName(%q, %d) = %q, want %q", site, i, got, want)
			}
		}
	}
	if per := testing.AllocsPerRun(100, func() { _ = formatNodeName("osg", 42) }); per > 1 {
		t.Errorf("formatNodeName allocates %.0f times, want the string only", per)
	}
}

// TestSlabTypesCarryNoCopy: the leading noCopy field is what makes `go vet`
// reject a by-value copy of a slab type; dropping it must fail here.
func TestSlabTypesCarryNoCopy(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeOf((*recArena)(nil)).Elem(),
		reflect.TypeOf((*attemptSlab)(nil)).Elem(),
	} {
		if f := typ.Field(0); f.Type != reflect.TypeOf(noCopy{}) {
			t.Errorf("%s: first field is %s %s, want the noCopy guard", typ, f.Name, f.Type)
		}
	}
}
