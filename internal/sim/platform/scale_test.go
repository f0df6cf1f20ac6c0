package platform

import (
	"testing"

	"pegflow/internal/engine"
	"pegflow/internal/planner"
)

// stormyConfigs is a two-site pool with evictions and retries on the flaky
// site, a slot ramp on the stable one, and distinct dispatch streams.
func stormyConfigs() []Config {
	return []Config{
		{Name: "stable", Slots: 8, SubmitInterval: 0.5, DispatchMean: 5, DispatchCV: 0.4,
			SpeedFactor: 1, SpeedJitter: 0.1, InitialSlots: 2, SlotRampInterval: 40, Seed: 3},
		{Name: "flaky", Slots: 8, SubmitInterval: 0.5, DispatchMean: 20, DispatchCV: 0.8,
			SpeedFactor: 1, SpeedJitter: 0.2, SetupMean: 30, SetupCV: 0.5,
			EvictionRate: 1.0 / 150, Seed: 3},
	}
}

// runStormyFlat executes an n-job flat plan on the stormy two-site pool and
// returns the pool's record-arena high-water mark: the number of kickstart
// records ever allocated fresh, summed over sites. With aggregation folding
// and recycling every record, that mark tracks the in-flight population,
// not the attempt count; an exact run retains every record it logs.
//
// With cluster on, the plan is folded into composites of four and evicted
// jobs fail over to the stable site, so that composite attempts both get
// evicted and succeed.
func runStormyFlat(t *testing.T, n int, cluster, aggregate bool) (highWater, logged int) {
	t.Helper()
	cats, plan := twoSiteWorld(t, n)
	opts := engine.Options{RetryLimit: 6, Aggregate: aggregate}
	if cluster {
		var err error
		if plan, err = planner.Cluster(plan, planner.ClusterOptions{MaxTasksPerJob: 4}); err != nil {
			t.Fatal(err)
		}
		fo, err := planner.NewFailover(cats, plan.Sites)
		if err != nil {
			t.Fatal(err)
		}
		opts.Retry = fo.Resite
	}
	pool, err := NewMultiExecutor(stormyConfigs())
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(plan, pool, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cluster && (!res.Success || res.Evictions == 0) {
		t.Fatalf("fixture broken: clustered run success=%v with %d evictions", res.Success, res.Evictions)
	}
	for _, name := range pool.SiteNames() {
		highWater += pool.Site(name).ArenaRecords()
	}
	return highWater, res.Log.Len()
}

// TestAggregatedArenaRetentionIsFlat is the bounded-retention assertion
// at the platform layer: growing the job count 10× must not grow the
// record-arena high-water mark beyond measurement noise (2×), because
// aggregated runs recycle every record back to its arena at fold time —
// a successful composite attempt included, which emits only its member
// records and must leave no record of its own behind. Exact-mode runs
// retain every record, so the arena mark there is the log length —
// asserted as the contrast case.
func TestAggregatedArenaRetentionIsFlat(t *testing.T) {
	for _, cluster := range []bool{false, true} {
		name := "flat"
		if cluster {
			name = "clustered"
		}
		t.Run(name, func(t *testing.T) {
			smallHW, smallLog := runStormyFlat(t, 200, cluster, true)
			bigHW, bigLog := runStormyFlat(t, 2000, cluster, true)
			if bigLog < 10*smallLog/2 {
				t.Fatalf("fixture broken: %d records at n=2000 vs %d at n=200", bigLog, smallLog)
			}
			if bigHW > 2*smallHW {
				t.Errorf("arena high-water grew with n: %d records at n=2000 vs %d at n=200 (logged %d vs %d)",
					bigHW, smallHW, bigLog, smallLog)
			}
			if bigHW >= bigLog/10 {
				t.Errorf("arena high-water %d is not small against %d logged records; records are not being recycled",
					bigHW, bigLog)
			}

			// Contrast: an exact run must retain every record, so its
			// arena mark equals its log length — proving the measurement
			// would catch a retention regression.
			exactHW, exactLog := runStormyFlat(t, 2000, cluster, false)
			if exactHW != exactLog {
				t.Errorf("exact run arena mark %d != %d logged records", exactHW, exactLog)
			}
		})
	}
}
