package platform

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"pegflow/internal/catalog"
	"pegflow/internal/engine"
	"pegflow/internal/fault"
	"pegflow/internal/kickstart"
	"pegflow/internal/planner"
	"pegflow/internal/sim/rng"
)

// warmCase is one pool of the warm-storage table: what to build, what to
// install and what to run on it.
type warmCase struct {
	name   string
	cfgs   []Config
	faults []fault.Spec
	plan   *planner.Plan
	// cats, when set, gives the run cross-site failover over the pool.
	cats      *planner.Catalogs
	aggregate bool
}

// warmRun is everything a run shows of its executor: every record field
// (or, aggregated, the folded log), the usage and the makespan.
type warmRun struct {
	records  []kickstart.Record
	tally    kickstart.Tally
	agg      *kickstart.Aggregates
	usage    []SiteUsage
	makespan float64
	success  bool
}

// run executes the case on ex. It reports through t.Errorf only, so that
// it may run on any goroutine.
func (tc *warmCase) run(t *testing.T, ex *Executor) (warmRun, bool) {
	script, err := fault.Compile(tc.faults)
	if err == nil {
		err = ex.InstallFaults(script)
	}
	opts := engine.Options{RetryLimit: 6, Aggregate: tc.aggregate}
	if err == nil && tc.cats != nil {
		var fo *planner.Failover
		fo, err = planner.NewFailover(*tc.cats, tc.plan.Sites)
		if err == nil {
			opts.Retry = fo.Resite
			opts.Backoff = engine.ExpBackoff(10, 200, rng.New(5))
		}
	}
	var res *engine.Result
	if err == nil {
		res, err = engine.Run(tc.plan, ex, opts)
	}
	if err != nil {
		t.Errorf("%s: %v", tc.name, err)
		return warmRun{}, false
	}
	out := warmRun{
		tally: res.Log.Tally(), agg: res.Log.Aggregates(),
		usage: ex.Usage(), makespan: res.Makespan, success: res.Success,
	}
	for _, r := range res.Log.Records() {
		out.records = append(out.records, *r)
	}
	return out, true
}

// warmCases is the table: two sites, then one site whose name the recycled
// storage has not seen, a faulted pool with a storm, an outage and capacity
// steps, a ramped OSG site, the same site with other dispatch and setup
// spreads and then also other means (a site re-derives its log-normal
// distributions only when their parameters change, so each case changes
// one of the two), and an aggregating run.
func warmCases(t *testing.T) []*warmCase {
	cats, twoSite := twoSiteWorld(t, 40)
	runtimes := make([]float64, 30)
	for i := range runtimes {
		runtimes[i] = float64(100 + 10*i)
	}
	renamed := Config{Name: "renamed", Slots: 4, SubmitInterval: 0.5, DispatchMean: 10, DispatchCV: 0.5,
		SpeedFactor: 1, SpeedJitter: 0.1, EvictionRate: 1.0 / 400, Seed: 5}
	var storms []fault.Spec
	storms = append(storms,
		fault.Spec{Type: "storm", Site: "flaky", At: 100, Duration: 2000, Multiplier: 3, KillFraction: 0.5},
		fault.Spec{Type: "outage", Site: "stable", At: 300, Duration: 400},
		fault.Spec{Type: "capacity", Site: "stable", At: 1000, Slots: intp(3)},
		fault.Spec{Type: "capacity", Site: "stable", At: 2500, Slots: intp(8)})
	osgPlan := buildPlan(t, &catalog.Site{Name: "osg", Slots: 600, SpeedFactor: 1}, false, runtimes)
	spread := OSG(9)
	spread.DispatchCV *= 2
	spread.SetupCV *= 2
	means := spread
	means.DispatchMean *= 2
	means.SetupMean *= 2
	return []*warmCase{
		{name: "two sites", cfgs: stormyConfigs(), plan: twoSite, cats: &cats},
		{name: "one renamed site", cfgs: []Config{renamed}, plan: buildPlan(t, plainSite("renamed", 4), true, runtimes)},
		{name: "faulted", cfgs: stormyConfigs(), faults: storms, plan: twoSite, cats: &cats},
		{name: "ramped osg", cfgs: []Config{OSG(9)}, plan: osgPlan},
		{name: "ramped osg, other spreads", cfgs: []Config{spread}, plan: osgPlan},
		{name: "ramped osg, other means", cfgs: []Config{means}, plan: osgPlan},
		{name: "aggregate", cfgs: stormyConfigs(), faults: storms, plan: twoSite, cats: &cats, aggregate: true},
	}
}

// fresh runs the case on fresh storage, through the constructor every
// executor is built by.
func (tc *warmCase) fresh(t *testing.T) warmRun {
	ex, err := newExecutor(new(storage), tc.cfgs)
	if err != nil {
		t.Fatal(err)
	}
	want, ok := tc.run(t, ex)
	if !ok {
		t.FailNow()
	}
	if len(want.records) == 0 && !tc.aggregate {
		t.Fatalf("%s: fixture broken: no records", tc.name)
	}
	return want
}

// compareWarm reports every way got differs from the fresh run want.
func compareWarm(t *testing.T, tc *warmCase, round int, got, want warmRun) {
	if !reflect.DeepEqual(got, want) {
		if len(got.records) != len(want.records) {
			t.Errorf("%s, round %d: %d records on recycled storage, %d on fresh", tc.name, round, len(got.records), len(want.records))
		}
		for i := range min(len(got.records), len(want.records)) {
			if got.records[i] != want.records[i] {
				t.Errorf("%s, round %d: record %d on recycled storage\n%+v\nfresh\n%+v", tc.name, round, i, got.records[i], want.records[i])
				break
			}
		}
		t.Errorf("%s, round %d: recycled storage ran makespan %v, usage %+v; fresh %v, %+v",
			tc.name, round, got.makespan, got.usage, want.makespan, want.usage)
	}
}

// TestWarmRunEqualsFresh: an executor built on storage that earlier pools
// ran on — other site counts, other names, faults, ramps, aggregation — runs
// exactly as one built on fresh storage. Sequentially, every case runs twice
// on one recycled storage, so each follows a case unlike it; shared, two
// workers run the table through NewMultiExecutor and Release, taking each
// other's storage from the package's free list (this is the case `make race`
// races).
func TestWarmRunEqualsFresh(t *testing.T) {
	cases := warmCases(t)
	want := make([]warmRun, len(cases))
	for i, tc := range cases {
		want[i] = tc.fresh(t)
	}

	t.Run("sequential", func(t *testing.T) {
		st := new(storage)
		// chunks counts the record-arena chunks the storage owns: a second
		// round of the same runs reissues the first round's records.
		chunks := func() (n int) {
			for _, s := range st.sites[:cap(st.sites)] {
				if s != nil {
					n += len(s.recs.chunks)
				}
			}
			return n
		}
		var firstRound int
		for round := range 2 {
			for i, tc := range cases {
				ex, err := newExecutor(st, tc.cfgs)
				if err != nil {
					t.Fatal(err)
				}
				got, ok := tc.run(t, ex)
				if !ok {
					t.FailNow()
				}
				compareWarm(t, tc, round, got, want[i])
			}
			if round == 0 {
				firstRound = chunks()
			}
		}
		if second := chunks(); second != firstRound {
			t.Errorf("the storage owns %d record chunks after one round of the table, %d after two", firstRound, second)
		}
	})

	t.Run("shared pool", func(t *testing.T) {
		var wg sync.WaitGroup
		for w := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := range 3 {
					for k := range cases {
						i := (k + w) % len(cases) // the workers walk the table out of step
						tc := cases[i]
						ex, err := NewMultiExecutor(tc.cfgs)
						if err != nil {
							t.Errorf("%s: %v", tc.name, err)
							return
						}
						got, ok := tc.run(t, ex)
						ex.Release()
						if !ok {
							return
						}
						compareWarm(t, tc, round, got, want[i])
					}
				}
			}()
		}
		wg.Wait()
	})
}

// TestReleasedExecutorPanics: a released executor is no executor — every
// use panics, instead of running on storage the next pool owns.
func TestReleasedExecutorPanics(t *testing.T) {
	ex, err := NewExecutor(plainConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	ex.Release()
	job := &planner.Job{ID: "J", Site: "plain", ExecSeconds: 1}
	for name, use := range map[string]func(){
		"Submit":  func() { ex.Submit(job, 1) },
		"Pull":    func() { ex.Pull() },
		"Now":     func() { ex.Now() },
		"Usage":   func() { ex.Usage() },
		"Reserve": func() { ex.Reserve(4) },
		"Release": func() { ex.Release() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released executor did not panic", name)
				}
			}()
			use()
		}()
	}
}

// TestRefusedPoolLeavesStorage: a configuration NewMultiExecutor refuses
// does not touch the storage it would have reset.
func TestRefusedPoolLeavesStorage(t *testing.T) {
	st := new(storage)
	if _, err := newExecutor(st, []Config{plainConfig(2)}); err != nil {
		t.Fatal(err)
	}
	for _, cfgs := range [][]Config{
		nil,
		{plainConfig(2), plainConfig(3)},
		{{Name: "bad", Slots: 0, SpeedFactor: 1}},
	} {
		if _, err := newExecutor(st, cfgs); err == nil {
			t.Errorf("pool %v accepted", cfgs)
		}
		if len(st.sites) != 1 || st.sites[0].cfg != plainConfig(2) {
			t.Errorf("refusing %v changed the storage's sites", cfgs)
		}
	}
	if _, err := newExecutor(st, []Config{plainConfig(2), plainConfig(2)}); err == nil ||
		err.Error() != fmt.Sprintf("platform: duplicate platform %q in pool", "plain") {
		t.Errorf("duplicate names: got %v", err)
	}
}
