package platform

import (
	"testing"

	"pegflow/internal/catalog"
	"pegflow/internal/engine"
	"pegflow/internal/fault"
	"pegflow/internal/kickstart"
)

// installChurn compiles a fault list and arms a fresh single-site
// executor with it.
func installChurn(t *testing.T, cfg Config, specs []fault.Spec) *Executor {
	t.Helper()
	ex, err := NewExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	script, err := fault.Compile(specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.InstallFaults(script); err != nil {
		t.Fatal(err)
	}
	return ex
}

// usageOf returns the usage of the named site of the pool.
func usageOf(t *testing.T, ex *Executor, name string) SiteUsage {
	t.Helper()
	for _, u := range ex.Usage() {
		if u.Site == name {
			return u
		}
	}
	t.Fatalf("no site %q in pool", name)
	return SiteUsage{}
}

func intp(v int) *int { return &v }

// TestChurnEdgeCases pins the awkward corners of mid-run site churn: a
// site dying while a job is still in setup, capacity shrinking below the
// occupied slot count, and an outage that is still open when the run
// ends.
func TestChurnEdgeCases(t *testing.T) {
	t.Run("site dies during setup", func(t *testing.T) {
		// Setup takes 100 s; the site dies at t=50, mid-setup. The attempt
		// must finalize as evicted with ExecStart clamped to the eviction
		// time (the payload never started).
		cfg := plainConfig(2)
		cfg.SetupMean = 100
		ex := installChurn(t, cfg, []fault.Spec{
			{Type: fault.TypeOutage, Site: "plain", At: 50, Duration: 100},
		})
		p := buildPlan(t, &catalog.Site{Name: "plain", Slots: 2, SpeedFactor: 1},
			false, []float64{1000})
		res, err := engine.Run(p, ex, engine.Options{RetryLimit: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Success {
			t.Fatalf("workflow failed: %+v", res.PermanentlyFailed)
		}
		if res.Evictions != 1 {
			t.Fatalf("Evictions = %d, want 1", res.Evictions)
		}
		first := res.Log.Records()[0]
		if first.Status != kickstart.StatusEvicted {
			t.Fatalf("first attempt status = %v, want evicted", first.Status)
		}
		if first.EndTime != 50 || first.ExecStart != 50 {
			t.Errorf("evicted-in-setup record: ExecStart=%v EndTime=%v, want both 50",
				first.ExecStart, first.EndTime)
		}
		if err := first.Validate(); err != nil {
			t.Errorf("invalid eviction record: %v", err)
		}
		// Retry waits out the outage: slot back at t=150, setup 100,
		// payload 1000 → done at 1250.
		if res.Makespan != 1250 {
			t.Errorf("Makespan = %v, want 1250 (outage + setup + payload)", res.Makespan)
		}
		if u := usageOf(t, ex, "plain"); u.Outages != 1 || u.DowntimeSeconds != 100 {
			t.Errorf("outages=%d downtime=%v, want 1 and 100", u.Outages, u.DowntimeSeconds)
		}
	})

	t.Run("capacity shrinks below occupied slots", func(t *testing.T) {
		// Four 1000 s jobs occupy all four slots when capacity steps down
		// to one at t=100. Held slots stay held — the running quartet
		// finishes — but the queue drains one at a time afterwards.
		ex := installChurn(t, plainConfig(4), []fault.Spec{
			{Type: fault.TypeCapacity, Site: "plain", At: 100, Slots: intp(1)},
		})
		runtimes := []float64{1000, 1000, 1000, 1000, 1000, 1000}
		p := buildPlan(t, plainSite("plain", 4), true, runtimes)
		res, err := engine.Run(p, ex, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Success {
			t.Fatalf("workflow failed: %+v", res.PermanentlyFailed)
		}
		if got := usageOf(t, ex, "plain").MaxBusySlots; got != 4 {
			t.Errorf("MaxBusySlots = %d, want 4 (held units remain held)", got)
		}
		// First four: 0–1000. Remaining two serialize: 1000–2000, 2000–3000.
		if res.Makespan != 3000 {
			t.Errorf("Makespan = %v, want 3000 (post-shrink serialization)", res.Makespan)
		}
		if got := usageOf(t, ex, "plain").Outages; got != 0 {
			t.Errorf("Outages = %d, want 0 (shrink is not an outage)", got)
		}
	})

	t.Run("outage spans end of run", func(t *testing.T) {
		// A drain-profile outage starts at t=50 and nominally lasts far
		// beyond the workload. The running job finishes (drain does not
		// preempt) and the downtime accounting must include the still-open
		// interval at the end of the run.
		ex := installChurn(t, plainConfig(1), []fault.Spec{
			{Type: fault.TypeOutage, Site: "plain", At: 50, Duration: 1e6,
				Profile: fault.ProfileDrain},
		})
		p := buildPlan(t, plainSite("plain", 1), true, []float64{100})
		res, err := engine.Run(p, ex, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Success || res.Evictions != 0 {
			t.Fatalf("success=%v evictions=%d, want drained run with no evictions",
				res.Success, res.Evictions)
		}
		if res.Makespan != 100 {
			t.Errorf("Makespan = %v, want 100", res.Makespan)
		}
		u := usageOf(t, ex, "plain")
		if u.Outages != 1 {
			t.Errorf("Outages = %d, want 1", u.Outages)
		}
		if got := u.DowntimeSeconds; got != 50 {
			t.Errorf("DowntimeSeconds = %v, want 50 (open outage counted to now)", got)
		}
	})
}

func TestOutagePreemptsAndRecovers(t *testing.T) {
	// Two running jobs are preempted when the site dies at t=200; both
	// retries queue until recovery at t=300 and then run to completion.
	ex := installChurn(t, plainConfig(2), []fault.Spec{
		{Type: fault.TypeOutage, Site: "plain", At: 200, Duration: 100},
	})
	p := buildPlan(t, plainSite("plain", 2), true, []float64{1000, 1000})
	res, err := engine.Run(p, ex, engine.Options{RetryLimit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("workflow failed: %+v", res.PermanentlyFailed)
	}
	if res.Evictions != 2 {
		t.Errorf("Evictions = %d, want 2 (both slots preempted)", res.Evictions)
	}
	if res.Makespan != 1300 {
		t.Errorf("Makespan = %v, want 1300 (recover at 300 + 1000 payload)", res.Makespan)
	}
	for _, r := range res.Log.Records() {
		if err := r.Validate(); err != nil {
			t.Errorf("invalid record: %v", err)
		}
	}
}

func TestBlackoutHoldsDispatch(t *testing.T) {
	// Dispatch lands at t=0 inside a [0, 75) blackout, so the slot request
	// is held to the window's end: a 100 s job finishes at 175.
	ex := installChurn(t, plainConfig(1), []fault.Spec{
		{Type: fault.TypeBlackout, Site: "plain", At: 0, Duration: 75},
	})
	p := buildPlan(t, plainSite("plain", 1), true, []float64{100})
	res, err := engine.Run(p, ex, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success || res.Makespan != 175 {
		t.Fatalf("success=%v Makespan=%v, want success at 175", res.Success, res.Makespan)
	}
}

func TestStormKillFractionPreemptsDeterministically(t *testing.T) {
	// A kill-everything storm front at t=50 evicts both running jobs;
	// retries immediately reoccupy the slots (no capacity change) and the
	// run completes at 1050. Two identical runs must agree exactly.
	run := func() (*engine.Result, *Executor) {
		ex := installChurn(t, plainConfig(2), []fault.Spec{
			{Type: fault.TypeStorm, Site: "plain", At: 50, Duration: 1,
				KillFraction: 1},
		})
		p := buildPlan(t, plainSite("plain", 2), true, []float64{1000, 1000})
		res, err := engine.Run(p, ex, engine.Options{RetryLimit: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res, ex
	}
	res, _ := run()
	if !res.Success {
		t.Fatalf("workflow failed: %+v", res.PermanentlyFailed)
	}
	if res.Evictions != 2 {
		t.Errorf("Evictions = %d, want 2", res.Evictions)
	}
	if res.Makespan != 1050 {
		t.Errorf("Makespan = %v, want 1050", res.Makespan)
	}
	res2, _ := run()
	if res2.Makespan != res.Makespan || res2.Evictions != res.Evictions {
		t.Errorf("storm run not reproducible: %v/%d vs %v/%d",
			res.Makespan, res.Evictions, res2.Makespan, res2.Evictions)
	}
}

func TestStormHazardRaisesEvictions(t *testing.T) {
	// The base platform has no eviction hazard at all; an added-rate storm
	// over the whole run evicts aggressively while it lasts, and the same
	// seed reproduces the exact eviction count.
	run := func() *engine.Result {
		cfg := plainConfig(4)
		ex := installChurn(t, cfg, []fault.Spec{
			{Type: fault.TypeStorm, Site: "plain", At: 0, Duration: 5000,
				Rate: 2e-3},
		})
		runtimes := make([]float64, 12)
		for i := range runtimes {
			runtimes[i] = 800
		}
		p := buildPlan(t, plainSite("plain", 4), true, runtimes)
		res, err := engine.Run(p, ex, engine.Options{RetryLimit: 50})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if !res.Success {
		t.Fatalf("workflow failed: %+v", res.PermanentlyFailed)
	}
	if res.Evictions == 0 {
		t.Fatal("no evictions under a 2e-3 added-hazard storm")
	}
	if res2 := run(); res2.Evictions != res.Evictions || res2.Makespan != res.Makespan {
		t.Errorf("storm run not reproducible: %d/%v vs %d/%v",
			res.Evictions, res.Makespan, res2.Evictions, res2.Makespan)
	}
}

func TestMultiInstallFaultsRejectsUnknownSite(t *testing.T) {
	m, err := NewMultiExecutor([]Config{plainConfig(2)})
	if err != nil {
		t.Fatal(err)
	}
	script, err := fault.Compile([]fault.Spec{
		{Type: fault.TypeOutage, Site: "nowhere", At: 0, Duration: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InstallFaults(script); err == nil {
		t.Fatal("InstallFaults accepted a site not in the pool")
	}
	if err := m.InstallFaults(nil); err != nil {
		t.Fatalf("nil script should be a no-op, got %v", err)
	}
}
