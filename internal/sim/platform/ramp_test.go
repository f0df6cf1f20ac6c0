package platform

import (
	"testing"

	"pegflow/internal/catalog"
	"pegflow/internal/engine"
	"pegflow/internal/fault"
)

func TestSlotRampDelaysExcessJobs(t *testing.T) {
	// 4 jobs of 10 s; pool starts with 1 slot and gains one every 100 s.
	cfg := plainConfig(4)
	cfg.InitialSlots = 1
	cfg.SlotRampInterval = 100
	p := buildPlan(t, plainSite("plain", 4), true, []float64{10, 10, 10, 10})
	ex, err := NewExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(p, ex, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Job 1 at t=0-10; slot 2 at t=100 → job 2 ends 110; job 3 needs the
	// freed slot at t=10? FIFO: job 2 grabs slot 1 at t=10 and ends 20,
	// job 3 at 30, job 4 at 40. The ramp only helps if jobs outlast it.
	if res.Makespan != 40 {
		t.Errorf("Makespan = %v, want 40 (reuse of the single slot)", res.Makespan)
	}

	// Long jobs actually exercise the ramp: 4 × 1000 s.
	p2 := buildPlan(t, plainSite("plain", 4), true, []float64{1000, 1000, 1000, 1000})
	ex2, err := NewExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := engine.Run(p2, ex2, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Slots appear at 0, 100, 200, 300 → last job ends at 300+1000.
	if res2.Makespan != 1300 {
		t.Errorf("Makespan = %v, want 1300 (ramped slots)", res2.Makespan)
	}
}

func TestSlotRampDisabledWhenInitialAtLeastSlots(t *testing.T) {
	cfg := plainConfig(2)
	cfg.InitialSlots = 2 // == Slots: no ramp
	cfg.SlotRampInterval = 1000
	p := buildPlan(t, plainSite("plain", 2), true, []float64{50, 50})
	ex, err := NewExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(p, ex, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 50 {
		t.Errorf("Makespan = %v, want 50 (both slots available at t=0)", res.Makespan)
	}
}

func TestCloudPresetCharacter(t *testing.T) {
	cfg := Cloud(3)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.SetupMean != 0 {
		t.Error("cloud images should carry the software (no install phase)")
	}
	if cfg.EvictionRate != 0 {
		t.Error("cloud VMs are not preempted")
	}
	if cfg.InitialSlots <= 0 || cfg.SlotRampInterval <= 0 {
		t.Error("cloud should provision with a ramp")
	}
	// Run a workload and check no evictions / setups occur.
	site := &catalog.Site{Name: "cloud", Slots: cfg.Slots, SpeedFactor: 1, SharedSoftware: true}
	p := buildPlan(t, site, true, []float64{500, 500, 500, 500})
	ex, err := NewExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(p, ex, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success || res.Evictions != 0 {
		t.Errorf("cloud run: success=%v evictions=%d", res.Success, res.Evictions)
	}
	for _, r := range res.Log.Records() {
		if r.Setup() != 0 {
			t.Errorf("cloud job %s has setup %v", r.JobID, r.Setup())
		}
	}
}

func TestRampConfigValidation(t *testing.T) {
	cfg := plainConfig(2)
	cfg.InitialSlots = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative initial slots accepted")
	}
	cfg = plainConfig(2)
	cfg.SlotRampInterval = -5
	if err := cfg.Validate(); err == nil {
		t.Error("negative ramp interval accepted")
	}
}

// TestRampStepFiresBeforeTiedFaultStep pins the tie between the slot ramp
// and a fault capacity step at the same instant: ramp step k fires first.
// On the OSG preset's ramp (30 slots, one more every 25 s) with every slot
// wanted, step 144 at 3600 s raises the base to 174 slots and grants a
// 174th attempt; a capacity step to 173 slots at 3600 s applies after that
// grant. A step just before the ramp step caps the pool at 173 for good.
func TestRampStepFiresBeforeTiedFaultStep(t *testing.T) {
	osg := OSG(1)
	run := func(at float64) SiteUsage {
		cfg := plainConfig(osg.Slots)
		cfg.InitialSlots, cfg.SlotRampInterval = osg.InitialSlots, osg.SlotRampInterval
		ex := installChurn(t, cfg, []fault.Spec{
			{Type: fault.TypeCapacity, Site: "plain", At: at, Slots: intp(173)},
		})
		runtimes := make([]float64, 200)
		for i := range runtimes {
			runtimes[i] = 10000
		}
		p := buildPlan(t, plainSite("plain", cfg.Slots), true, runtimes)
		res, err := engine.Run(p, ex, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Success {
			t.Fatalf("step at %v: workflow failed", at)
		}
		return usageOf(t, ex, "plain")
	}
	if osg.InitialSlots != 30 || osg.SlotRampInterval != 25 {
		t.Fatalf("OSG ramp is %d slots + 1 per %v s; the instants below assume 30 and 25",
			osg.InitialSlots, osg.SlotRampInterval)
	}
	if got := run(144 * 25).MaxBusySlots; got != 174 {
		t.Errorf("capacity step tied with ramp step 144: MaxBusySlots = %d, want 174 (ramp step first)", got)
	}
	if got := run(144*25 - 0.5).MaxBusySlots; got != 173 {
		t.Errorf("capacity step before ramp step 144: MaxBusySlots = %d, want 173", got)
	}
}
