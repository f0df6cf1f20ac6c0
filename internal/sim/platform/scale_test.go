package platform

import (
	"testing"

	"pegflow/internal/engine"
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

// runAggregatedFlat executes an n-job flat plan on the stormy two-site
// pool in aggregation mode and returns the pool's record-arena high-water
// mark: the number of kickstart records ever allocated fresh, summed over
// sites. With aggregation folding and recycling every record, that mark
// tracks the in-flight population, not the attempt count.
func runAggregatedFlat(t *testing.T, n int) (highWater, attempts int) {
	t.Helper()
	_, plan := twoSiteWorld(t, n)
	pool, err := NewMultiExecutor(stormyConfigs())
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(plan, pool, engine.Options{RetryLimit: 6, Aggregate: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range pool.SiteNames() {
		highWater += pool.Site(name).ArenaRecords()
	}
	return highWater, res.Log.Len()
}

// TestAggregatedArenaRetentionIsFlat is the bounded-retention assertion
// at the platform layer: growing the job count 10× must not grow the
// record-arena high-water mark beyond measurement noise (2×), because
// aggregated runs recycle every record back to its arena at fold time.
// Exact-mode runs retain every record, so the arena mark there is the
// attempt count — asserted as the contrast case.
func TestAggregatedArenaRetentionIsFlat(t *testing.T) {
	smallHW, smallAtt := runAggregatedFlat(t, 200)
	bigHW, bigAtt := runAggregatedFlat(t, 2000)
	if bigAtt < 10*smallAtt/2 {
		t.Fatalf("fixture broken: %d attempts at n=2000 vs %d at n=200", bigAtt, smallAtt)
	}
	if bigHW > 2*smallHW {
		t.Errorf("arena high-water grew with n: %d records at n=2000 vs %d at n=200 (attempts %d vs %d)",
			bigHW, smallHW, bigAtt, smallAtt)
	}
	if bigHW >= bigAtt/10 {
		t.Errorf("arena high-water %d is not small against %d attempts; records are not being recycled",
			bigHW, bigAtt)
	}

	// Contrast: an exact run must retain every record, so its arena mark
	// equals its attempt count — proving the measurement would catch a
	// retention regression.
	_, plan := twoSiteWorld(t, 2000)
	pool, err := NewMultiExecutor(stormyConfigs())
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(plan, pool, engine.Options{RetryLimit: 6})
	if err != nil {
		t.Fatal(err)
	}
	exactHW := 0
	for _, name := range pool.SiteNames() {
		exactHW += pool.Site(name).ArenaRecords()
	}
	if exactHW != res.Log.Len() {
		t.Errorf("exact run arena mark %d != %d attempts", exactHW, res.Log.Len())
	}
}
