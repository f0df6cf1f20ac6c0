package platform

import (
	"testing"

	"pegflow/internal/catalog"
	"pegflow/internal/engine"
	"pegflow/internal/kickstart"
	"pegflow/internal/planner"
)

// clusteredPlan builds a plan of `n` equal tasks and folds them into
// composites of `size`.
func clusteredPlan(t *testing.T, site *catalog.Site, installed bool, n, size int, runtime float64) *planner.Plan {
	t.Helper()
	runtimes := make([]float64, n)
	for i := range runtimes {
		runtimes[i] = runtime
	}
	p := buildPlan(t, site, installed, runtimes)
	cp, err := planner.Cluster(p, planner.ClusterOptions{MaxTasksPerJob: size})
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// One composite of 3 tasks on a deterministic platform: the slot is held
// once, the install is paid once, and the three member records tile the
// execution window exactly.
func TestCompositeJobEmitsPerMemberRecords(t *testing.T) {
	site := &catalog.Site{Name: "plain", Slots: 4, SpeedFactor: 1}
	p := clusteredPlan(t, site, false, 3, 3, 100)
	if p.Graph().Len() != 1 {
		t.Fatalf("plan has %d jobs, want 1 composite", p.Graph().Len())
	}
	cfg := plainConfig(4)
	cfg.SetupMean = 40 // deterministic: CV 0 makes the draw return the mean
	ex, err := NewExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(p, ex, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatal("run failed")
	}
	recs := res.Log.Records()
	if len(recs) != 3 {
		t.Fatalf("log has %d records, want one per member (3)", len(recs))
	}
	composite := p.Jobs()[0]
	for i, r := range recs {
		if r.ClusterID != composite.ID {
			t.Errorf("record %d ClusterID = %q, want %q", i, r.ClusterID, composite.ID)
		}
		if r.JobID != composite.Members[i].TaskID {
			t.Errorf("record %d JobID = %q, want %q", i, r.JobID, composite.Members[i].TaskID)
		}
		if r.Status != kickstart.StatusSuccess {
			t.Errorf("record %d status %v", i, r.Status)
		}
		if r.Exec() != 100 {
			t.Errorf("record %d exec = %v, want 100", i, r.Exec())
		}
		if i == 0 {
			if r.Setup() != 40 {
				t.Errorf("first member setup = %v, want 40 (paid once)", r.Setup())
			}
		} else {
			if r.Setup() != 0 {
				t.Errorf("member %d setup = %v, want 0 (amortized)", i, r.Setup())
			}
			if r.ExecStart != recs[i-1].EndTime {
				t.Errorf("member %d starts at %v, sibling ended at %v", i, r.ExecStart, recs[i-1].EndTime)
			}
		}
	}
	// Makespan: dispatch(0) + setup(40) + 3*100.
	if res.Makespan != 340 {
		t.Errorf("makespan = %v, want 340", res.Makespan)
	}
	if got := recs[2].EndTime; got != res.Makespan {
		t.Errorf("last member ends at %v, event at %v", got, res.Makespan)
	}
}

// Clustering pays one install per composite instead of one per task, so on
// an install-dominated platform the makespan and the cumulative setup drop.
func TestCompositeAmortizesSetupOnOneSlot(t *testing.T) {
	site := &catalog.Site{Name: "plain", Slots: 1, SpeedFactor: 1}
	run := func(size int) (makespan, setupTotal float64) {
		p := clusteredPlan(t, site, false, 6, size, 10)
		cfg := plainConfig(1)
		cfg.SetupMean = 50
		ex, err := NewExecutor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.Run(p, ex, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Success {
			t.Fatal("run failed")
		}
		for _, r := range res.Log.Records() {
			setupTotal += r.Setup()
		}
		return res.Makespan, setupTotal
	}
	plainMakespan, plainSetup := run(1) // 6 jobs: 6*(50+10) = 360
	clMakespan, clSetup := run(6)       // 1 composite: 50 + 6*10 = 110
	if plainMakespan != 360 || clMakespan != 110 {
		t.Errorf("makespans = %v/%v, want 360/110", plainMakespan, clMakespan)
	}
	if plainSetup != 300 || clSetup != 50 {
		t.Errorf("cumulative setup = %v/%v, want 300/50", plainSetup, clSetup)
	}
}

// An evicted composite produces a single composite-level failure record and
// the whole bundle retries; once it lands cleanly every member record
// appears exactly once.
func TestCompositeEvictionRetriesWholeBundle(t *testing.T) {
	site := &catalog.Site{Name: "plain", Slots: 2, SpeedFactor: 1}
	p := clusteredPlan(t, site, true, 4, 2, 200)
	cfg := plainConfig(2)
	cfg.EvictionRate = 1.0 / 3000
	cfg.Seed = 11
	ex, err := NewExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(p, ex, engine.Options{RetryLimit: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("run failed: %d unfinished", len(res.Unfinished))
	}
	if res.Evictions == 0 {
		t.Skip("seed produced no evictions; adjust rate/seed")
	}
	memberSuccesses := map[string]int{}
	for _, r := range res.Log.Records() {
		if r.ClusterID == "" {
			t.Errorf("record %s has no ClusterID", r.JobID)
		}
		switch r.Status {
		case kickstart.StatusSuccess:
			memberSuccesses[r.JobID]++
		case kickstart.StatusEvicted:
			if r.JobID != r.ClusterID {
				t.Errorf("evicted record %s is not composite-level", r.JobID)
			}
			if r.ExecStart > r.EndTime {
				t.Errorf("evicted record %s: exec start %v past end %v", r.JobID, r.ExecStart, r.EndTime)
			}
		}
	}
	if len(memberSuccesses) != 4 {
		t.Errorf("%d distinct member tasks succeeded, want 4", len(memberSuccesses))
	}
	for id, n := range memberSuccesses {
		if n != 1 {
			t.Errorf("member %s succeeded %d times", id, n)
		}
	}
}
