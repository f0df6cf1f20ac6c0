package platform

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"pegflow/internal/catalog"
	"pegflow/internal/dax"
	"pegflow/internal/engine"
	"pegflow/internal/planner"
)

// plainConfig is a deterministic platform: no jitter, no dispatch noise,
// no preemption — useful for exact-time assertions.
func plainConfig(slots int) Config {
	return Config{Name: "plain", Slots: slots, SpeedFactor: 1.0, Seed: 1}
}

func buildPlan(t *testing.T, site *catalog.Site, installed bool, runtimes []float64) *planner.Plan {
	t.Helper()
	w := dax.New("w")
	for i, rt := range runtimes {
		w.NewJob(fmt.Sprintf("J%03d", i), "work").
			SetProfile("pegasus", "runtime", fmt.Sprintf("%v", rt))
	}
	sc := catalog.NewSiteCatalog()
	if err := sc.Add(site); err != nil {
		t.Fatal(err)
	}
	tc := catalog.NewTransformationCatalog()
	if err := tc.Add(&catalog.Transformation{
		Name: "work", Site: site.Name, Installed: installed, InstallBytes: 50e6,
	}); err != nil {
		t.Fatal(err)
	}
	p, err := planner.New(w, planner.Catalogs{
		Sites: sc, Transformations: tc, Replicas: catalog.NewReplicaCatalog(),
	}, planner.Options{Site: site.Name})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func plainSite(name string, slots int) *catalog.Site {
	return &catalog.Site{Name: name, Slots: slots, SpeedFactor: 1, SharedSoftware: true}
}

func TestDeterministicMakespanSingleJob(t *testing.T) {
	p := buildPlan(t, plainSite("plain", 4), true, []float64{100})
	ex, err := NewExecutor(plainConfig(4))
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
	if res.Makespan != 100 {
		t.Errorf("Makespan = %v, want exactly 100 (no noise configured)", res.Makespan)
	}
	rec := res.Log.Records()[0]
	if rec.Waiting() != 0 || rec.Setup() != 0 || rec.Exec() != 100 {
		t.Errorf("phases = %v/%v/%v, want 0/0/100", rec.Waiting(), rec.Setup(), rec.Exec())
	}
}

func TestSlotContentionSerializes(t *testing.T) {
	// 3 jobs of 10 s on 1 slot: makespan 30 s.
	p := buildPlan(t, plainSite("plain", 1), true, []float64{10, 10, 10})
	ex, err := NewExecutor(plainConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(p, ex, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 30 {
		t.Errorf("Makespan = %v, want 30", res.Makespan)
	}
	// The third job waited 20 s.
	var maxWait float64
	for _, r := range res.Log.Records() {
		if r.Waiting() > maxWait {
			maxWait = r.Waiting()
		}
	}
	if maxWait != 20 {
		t.Errorf("max waiting = %v, want 20", maxWait)
	}
	if got := ex.Usage()[0].MaxBusySlots; got != 1 {
		t.Errorf("MaxBusySlots = %d, want 1", got)
	}
}

func TestParallelSlotsShrinkMakespan(t *testing.T) {
	runtimes := make([]float64, 16)
	for i := range runtimes {
		runtimes[i] = 50
	}
	for _, tc := range []struct {
		slots int
		want  float64
	}{{1, 800}, {4, 200}, {16, 50}} {
		p := buildPlan(t, plainSite("plain", tc.slots), true, runtimes)
		ex, err := NewExecutor(plainConfig(tc.slots))
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.Run(p, ex, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan != tc.want {
			t.Errorf("slots=%d: Makespan = %v, want %v", tc.slots, res.Makespan, tc.want)
		}
	}
}

func TestSubmitIntervalDelaysLaterJobs(t *testing.T) {
	cfg := plainConfig(100)
	cfg.SubmitInterval = 5
	p := buildPlan(t, plainSite("plain", 100), true, []float64{10, 10, 10, 10})
	ex, err := NewExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(p, ex, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Job k released at k*5, runs 10 s → last ends at 15+10 = 25.
	if res.Makespan != 25 {
		t.Errorf("Makespan = %v, want 25", res.Makespan)
	}
}

func TestInstallPhaseOnlyWhenNotPreinstalled(t *testing.T) {
	cfg := plainConfig(4)
	cfg.SetupMean = 200
	// CV 0 → setup is exactly the mean.
	gridSite := &catalog.Site{Name: "plain", Slots: 4, SpeedFactor: 1, SharedSoftware: false}

	p := buildPlan(t, gridSite, false, []float64{100})
	ex, err := NewExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(p, ex, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Log.Records()[0]
	if rec.Setup() != 200 {
		t.Errorf("Setup = %v, want 200", rec.Setup())
	}
	if res.Makespan != 300 {
		t.Errorf("Makespan = %v, want 300", res.Makespan)
	}

	// Preinstalled at the same platform: no setup.
	p2 := buildPlan(t, gridSite, true, []float64{100})
	ex2, err := NewExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := engine.Run(p2, ex2, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec2 := res2.Log.Records()[0]; rec2.Setup() != 0 {
		t.Errorf("preinstalled Setup = %v, want 0", rec2.Setup())
	}
}

func TestInstallBytesExtendSetup(t *testing.T) {
	cfg := plainConfig(1)
	cfg.SetupMean = 100
	cfg.SetupBytesPerSec = 10e6 // 50e6 bytes → +5 s
	gridSite := &catalog.Site{Name: "plain", Slots: 1, SpeedFactor: 1}
	p := buildPlan(t, gridSite, false, []float64{10})
	ex, err := NewExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(p, ex, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec := res.Log.Records()[0]; rec.Setup() != 105 {
		t.Errorf("Setup = %v, want 105", rec.Setup())
	}
}

func TestSpeedFactorScalesExec(t *testing.T) {
	cfg := plainConfig(1)
	cfg.SpeedFactor = 0.5 // nodes twice as fast
	p := buildPlan(t, plainSite("plain", 1), true, []float64{100})
	ex, err := NewExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(p, ex, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 50 {
		t.Errorf("Makespan = %v, want 50", res.Makespan)
	}
}

func TestEvictionTriggersRetryAndRecovers(t *testing.T) {
	cfg := plainConfig(2)
	cfg.EvictionRate = 1e-3 // ~63% of a 1000 s job evicted
	runtimes := make([]float64, 20)
	for i := range runtimes {
		runtimes[i] = 1000
	}
	p := buildPlan(t, plainSite("plain", 2), true, runtimes)
	ex, err := NewExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(p, ex, engine.Options{RetryLimit: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("workflow failed despite retries: %+v", res.PermanentlyFailed)
	}
	if res.Evictions == 0 {
		t.Error("no evictions at hazard 1e-3 over 20 ks of work")
	}
	if res.Evictions != res.Retries {
		t.Errorf("Evictions=%d Retries=%d, want equal (all failures are evictions)",
			res.Evictions, res.Retries)
	}
	for _, r := range res.Log.Records() {
		if err := r.Validate(); err != nil {
			t.Errorf("invalid record: %v", err)
		}
	}
}

func TestEvictionExhaustsRetries(t *testing.T) {
	cfg := plainConfig(1)
	cfg.EvictionRate = 1.0 // evicted almost immediately, always
	p := buildPlan(t, plainSite("plain", 1), true, []float64{1000})
	ex, err := NewExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(p, ex, engine.Options{RetryLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Success {
		t.Fatal("success despite certain eviction")
	}
	if len(res.PermanentlyFailed) != 1 {
		t.Errorf("PermanentlyFailed = %v", res.PermanentlyFailed)
	}
	if got := res.Log.Len(); got != 3 {
		t.Errorf("attempts = %d, want 3 (1 + 2 retries)", got)
	}
}

func TestReproducibility(t *testing.T) {
	cfg := OSG(12345)
	run := func() float64 {
		p := buildPlan(t, &catalog.Site{Name: "osg", Slots: cfg.Slots, SpeedFactor: 1},
			false, []float64{500, 700, 900, 1100, 300})
		ex, err := NewExecutor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.Run(p, ex, engine.Options{RetryLimit: 10})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed produced different makespans: %v vs %v", a, b)
	}
	cfg2 := OSG(54321)
	p := buildPlan(t, &catalog.Site{Name: "osg", Slots: cfg2.Slots, SpeedFactor: 1},
		false, []float64{500, 700, 900, 1100, 300})
	ex, err := NewExecutor(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(p, ex, engine.Options{RetryLimit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan == a {
		t.Error("different seeds produced identical makespans (suspicious)")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Name: "", Slots: 1, SpeedFactor: 1},
		{Name: "x", Slots: 0, SpeedFactor: 1},
		{Name: "x", Slots: 1, SpeedFactor: 0},
		{Name: "x", Slots: 1, SpeedFactor: 1, SpeedJitter: 1.5},
		{Name: "x", Slots: 1, SpeedFactor: 1, DispatchMean: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
		if _, err := NewExecutor(c); err == nil {
			t.Errorf("case %d: NewExecutor accepted invalid config", i)
		}
	}
	for _, c := range []Config{Sandhills(1), OSG(1)} {
		if err := c.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", c.Name, err)
		}
	}
}

// TestConfigValidateRejectsNonFinite: every float field of a valid preset,
// set to NaN, +Inf or -Inf, makes the config invalid — a NaN dispatch or
// setup parameter used to pass and then schedule an event at NaN time
// mid-run.
func TestConfigValidateRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name string
		set  func(*Config, float64)
	}{
		{"SubmitInterval", func(c *Config, v float64) { c.SubmitInterval = v }},
		{"DispatchMean", func(c *Config, v float64) { c.DispatchMean = v }},
		{"DispatchCV", func(c *Config, v float64) { c.DispatchCV = v }},
		{"SpeedFactor", func(c *Config, v float64) { c.SpeedFactor = v }},
		{"SpeedJitter", func(c *Config, v float64) { c.SpeedJitter = v }},
		{"SetupMean", func(c *Config, v float64) { c.SetupMean = v }},
		{"SetupCV", func(c *Config, v float64) { c.SetupCV = v }},
		{"SetupBytesPerSec", func(c *Config, v float64) { c.SetupBytesPerSec = v }},
		{"EvictionRate", func(c *Config, v float64) { c.EvictionRate = v }},
		{"SlotRampInterval", func(c *Config, v float64) { c.SlotRampInterval = v }},
	}
	// Every float field of Config is in the table.
	floats := 0
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Config{})) {
		if f.Type.Kind() == reflect.Float64 {
			floats++
		}
	}
	if floats != len(fields) {
		t.Fatalf("Config has %d float fields, the table %d", floats, len(fields))
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			c := OSG(1)
			f.set(&c, v)
			if err := c.Validate(); err == nil {
				t.Errorf("%s = %v accepted", f.name, v)
			}
		}
	}
}

func TestSandhillsVsOSGPresetCharacter(t *testing.T) {
	// The presets must realize the paper's qualitative platform contrast
	// on an identical 64-task workload.
	runtimes := make([]float64, 64)
	for i := range runtimes {
		runtimes[i] = 2000
	}
	run := func(cfg Config, installed bool) *engine.Result {
		site := &catalog.Site{Name: cfg.Name, Slots: cfg.Slots, SpeedFactor: 1,
			SharedSoftware: installed}
		p := buildPlan(t, site, installed, runtimes)
		ex, err := NewExecutor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.Run(p, ex, engine.Options{RetryLimit: 20})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Success {
			t.Fatalf("%s run failed", cfg.Name)
		}
		return res
	}
	sand := run(Sandhills(7), true)
	osg := run(OSG(7), false)

	var sandWait, osgWait, sandSetup, osgSetup float64
	for _, r := range sand.Log.Successes() {
		sandWait += r.Waiting()
		sandSetup += r.Setup()
	}
	for _, r := range osg.Log.Successes() {
		osgWait += r.Waiting()
		osgSetup += r.Setup()
	}
	n := float64(len(sand.Log.Successes()))
	m := float64(len(osg.Log.Successes()))
	if sandSetup != 0 {
		t.Errorf("Sandhills has download/install time %v, want 0", sandSetup/n)
	}
	if osgSetup/m < 100 {
		t.Errorf("OSG mean setup %v, want ≥ 100 s", osgSetup/m)
	}
	if osgWait/m <= sandWait/n {
		t.Errorf("OSG mean waiting %v not above Sandhills %v", osgWait/m, sandWait/n)
	}
	if sand.Evictions != 0 {
		t.Errorf("Sandhills evictions = %d, want 0", sand.Evictions)
	}
	if osg.Makespan <= sand.Makespan {
		t.Errorf("OSG makespan %v not above Sandhills %v on identical workload",
			osg.Makespan, sand.Makespan)
	}
}
