package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"time"

	"pegflow/internal/core"
)

// runConfig is one run of one workload.
type runConfig struct {
	def     *workloadDef
	seed    uint64
	seconds float64
	// trace selects the phases: "0" measures the end-to-end metrics
	// untraced, "1" runs the traced pass for the per-layer metrics, "both"
	// does one after the other in the same process.
	trace string
	quick bool
	sz    sizes
	// setups is how many times the workload is set up at least (the median
	// is setup_s), and setupFor how long it goes on being set up, at most
	// maxSetups times; minRounds is the fewest rounds measured however
	// short -seconds is.
	setups, minRounds int
	setupFor          time.Duration
	// warmup is how long the process works — set-ups, then unmeasured
	// rounds — before anything is timed.
	warmup time.Duration
	// refSorts sizes one sample of the host reference.
	refSorts int
	log      io.Writer
}

// runResult is everything one run found. Metrics holds the end-to-end
// metrics, Layers the per-layer ones; either may be empty by -trace.
// maxSetups caps the set-ups of one run.
const maxSetups = 15

type runResult struct {
	Workload     string      `json:"workload"`
	Seed         uint64      `json:"seed"`
	Correct      bool        `json:"correct"`
	Attempted    int         `json:"attempted"`
	Failed       int         `json:"failed"`
	FailedShare  float64     `json:"failed_share"`
	OutputSHA256 string      `json:"output_sha256"`
	Rounds       int         `json:"rounds"`
	Problems     []string    `json:"problems,omitempty"`
	Warnings     []string    `json:"warnings,omitempty"`
	LoadStart    float64     `json:"loadavg_start"`
	LoadEnd      float64     `json:"loadavg_end"`
	Env          environment `json:"env"`
	// HostFactor is the median host factor of the measured rounds (see
	// hostRef): a clock-derived end-to-end metric times it is the raw reading.
	HostFactor *value           `json:"host_factor,omitempty"`
	Metrics    map[string]value `json:"metrics,omitempty"`
	Layers     map[string]value `json:"layers,omitempty"`
	spans      []span
}

func (r *runResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// absorb books one round's operations and findings.
func (r *runResult) absorb(out roundOut) {
	r.Attempted += out.ops
	r.Failed += out.failed
	r.Problems = append(r.Problems, out.problems...)
}

// runWorkload runs one workload as configured.
func runWorkload(cfg runConfig) (*runResult, error) {
	begin := time.Now()
	res := &runResult{
		Workload:  cfg.def.name,
		Seed:      cfg.seed,
		Env:       readEnvironment(),
		LoadStart: loadAverage(),
	}
	if w := loadWarning(res.LoadStart); w != "" {
		res.Warnings = append(res.Warnings, w)
		fmt.Fprintln(cfg.log, "warning:", w)
	}
	workers := res.Env.Workers

	// Set up several times and keep the last instance: one set-up is one
	// sample, and set-up time is an end-to-end metric of its own so that
	// work moved into it shows. A serve set-up takes a tenth of a second,
	// so there are more of them: as many as fit in setupFor.
	setups, setupFor := cfg.setups, cfg.setupFor
	if cfg.trace == "1" { // setup_s is not reported
		setups, setupFor = 1, 0
	}
	ref := newHostRef(workers, cfg.refSorts)
	before := ref.sample()
	var inst instance
	var setupS []float64
	for k := 0; k < setups || (k < maxSetups && time.Since(begin) < setupFor); k++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		if inst, err = cfg.def.setup(cfg.seed, cfg.sz, workers); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(start)
		after := ref.sample()
		setupS = append(setupS, took.Seconds()/ref.factor(before, after))
		before = after
	}
	defer inst.close()

	// Warm up: a serve set-up takes a tenth of a second, and a process that
	// young runs slow — the host has not yet given its vCPUs their clock,
	// the heap its size, the connections their buffers. Rounds run here are
	// checked like any other and not timed.
	for time.Since(begin) < cfg.warmup {
		out, err := inst.round(nil)
		if err != nil {
			return nil, fmt.Errorf("warm-up round: %w", err)
		}
		res.absorb(out)
		if res.OutputSHA256 == "" {
			res.OutputSHA256 = hexDigest(out.digest)
		}
	}

	if cfg.trace != "1" {
		res.Metrics = map[string]value{"setup_s": {Value: median(setupS), Samples: setupS}}
		if err := measure(cfg, inst, ref, res); err != nil {
			return nil, err
		}
	}
	if cfg.trace != "0" {
		if err := tracedPass(cfg, inst, workers, res); err != nil {
			return nil, err
		}
	}
	res.LoadEnd = loadAverage()
	if res.Attempted > 0 {
		res.FailedShare = float64(res.Failed) / float64(res.Attempted)
	}
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	return res, nil
}

// measure runs the untraced rounds: fixed work per round, as many rounds
// as fit in -seconds (never fewer than minRounds), each with a sample of
// the host reference on either side and stated in reference time. It fills
// the end-to-end metrics: medians over rounds for rates and costs,
// percentiles over the pooled document latencies.
func measure(cfg runConfig, inst instance, ref *hostRef, res *runResult) error {
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	var rounds []roundOut
	var factors []float64
	before := ref.sample()
	for {
		// Stop when the next round, if it takes as long as the average so
		// far, would end after -seconds.
		if n := len(rounds); n >= cfg.minRounds && time.Since(start)*time.Duration(n+1)/time.Duration(n) > budget {
			break
		}
		out, err := inst.round(nil)
		if err != nil {
			return fmt.Errorf("round %d: %w", len(rounds)+1, err)
		}
		res.absorb(out)
		after := ref.sample()
		factors = append(factors, ref.factor(before, after))
		out.inReferenceTime(factors[len(factors)-1])
		before = after
		rounds = append(rounds, out)
		if cfg.quick {
			break
		}
	}
	res.Rounds = len(rounds)
	res.HostFactor = &value{Value: median(factors), Unit: "ratio", Samples: factors}
	if res.OutputSHA256 == "" {
		res.OutputSHA256 = hexDigest(rounds[0].digest)
	}
	first := rounds[0]
	for i, out := range rounds {
		if out.attempts == 0 || out.cells == 0 {
			return fmt.Errorf("round %d delivered no work (%d cells, %d attempts)", i+1, out.cells, out.attempts)
		}
		// Scenario rounds and serve_hit rounds repeat the same documents, so
		// they must repeat the same bytes; serve_miss never repeats a seed.
		if cfg.def.name != "serve_miss" && (out.digest != first.digest || out.attempts != first.attempts) {
			res.problem("round %d: output differs from round 1 (%d attempts vs %d)", i+1, out.attempts, first.attempts)
		}
	}

	per := func(f func(roundOut) float64) value {
		samples := make([]float64, len(rounds))
		for i, out := range rounds {
			samples[i] = f(out)
		}
		return value{Value: median(samples), Samples: samples}
	}
	var pooled []float64
	for _, out := range rounds {
		pooled = append(pooled, out.latencies...)
	}
	tail := tailPercentile(len(pooled))
	p50 := per(func(o roundOut) float64 { return nearestRank(append([]float64(nil), o.latencies...), 50) })
	p99 := per(func(o roundOut) float64 { return nearestRank(append([]float64(nil), o.latencies...), tail) })
	p50.Value, p99.Value = nearestRank(pooled, 50), nearestRank(pooled, tail)

	m := res.Metrics
	m["cells_per_s"] = per(func(o roundOut) float64 { return float64(o.cells) / o.cost.wall.Seconds() })
	m["attempts_per_s"] = per(func(o roundOut) float64 { return float64(o.attempts) / o.cost.wall.Seconds() })
	m["requests_per_s"] = per(func(o roundOut) float64 { return float64(o.requests) / o.cost.wall.Seconds() })
	m["latency_p50_ms"] = p50
	m["latency_p99_ms"] = p99
	m["cpu_us_per_attempt"] = per(func(o roundOut) float64 { return us(o.cost.cpu) / float64(o.attempts) })
	m["cpu_ms_per_request"] = per(func(o roundOut) float64 { return ms(o.cost.cpu) / float64(o.requests) })
	m["allocs_per_attempt"] = per(func(o roundOut) float64 { return float64(o.cost.mallocs) / float64(o.attempts) })
	m["alloc_bytes_per_attempt"] = per(func(o roundOut) float64 { return float64(o.cost.bytes) / float64(o.attempts) })
	for _, def := range endToEnd {
		v, ok := m[def.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", def.Name)
		}
		v.Unit = def.Unit
		m[def.Name] = v
	}
	return nil
}

// tailPercentile is the percentile latency_p99_ms reports over n pooled
// samples: the 99th when at least ten samples lie beyond it, the median
// otherwise. A scenario workload delivers one document per round, a
// handful per run; the "p99" of seven samples is their maximum, which
// measures the host's worst moment and not the program.
func tailPercentile(n int) float64 {
	if n >= 1000 {
		return 99
	}
	return 50
}

// gcCPUSeconds reads the runtime's own estimate of CPU spent in the
// collector and in total.
func gcCPUSeconds() (gc, total float64) {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 && samples[1].Value.Kind() == metrics.KindFloat64 {
		return samples[0].Value.Float64(), samples[1].Value.Float64()
	}
	return 0, 0
}

// srvCounters are the serve tier's own counters, read through its health
// endpoint; all zero on the scenario workloads, which have no server.
type srvCounters struct{ hits, misses, evictions, aborted, refused float64 }

func serverCounters(inst instance) srvCounters {
	s, ok := inst.(*serveInst)
	if !ok {
		return srvCounters{}
	}
	h, err := s.health()
	if err != nil {
		return srvCounters{}
	}
	st := resultStats(h)
	return srvCounters{float64(st.Hits), float64(st.Misses), float64(st.Evictions),
		float64(h.AbortedStreams), float64(s.refused.Load())}
}

// tracedPass produces the per-layer metrics. On the workload itself: one
// untraced and one traced round on the set-up instance (their difference
// is the tracing overhead), one round on a one-worker instance (pool
// speed-up, and the bytes must not depend on the worker count). Then the
// layer suite, which is the same for every workload.
func tracedPass(cfg runConfig, inst instance, workers int, res *runResult) error {
	tr := newTracer(cfg.def.name)
	l := &layerSet{values: make(map[string]value)}

	srv0 := serverCounters(inst)
	plan0 := core.PlanCacheStats()
	gc0, cpu0 := gcCPUSeconds()
	before := snapshot()
	plain, err := inst.round(nil)
	if err != nil {
		return fmt.Errorf("untraced round: %w", err)
	}
	plan1 := core.PlanCacheStats()
	tr.round = 1
	traced, err := inst.round(tr)
	if err != nil {
		return fmt.Errorf("traced round: %w", err)
	}
	used := snapshot().since(before)
	gc1, cpu1 := gcCPUSeconds()
	res.absorb(plain)
	res.absorb(traced)
	if res.OutputSHA256 == "" {
		res.OutputSHA256 = hexDigest(plain.digest)
	}
	if plain.attempts == 0 || plain.cells == 0 {
		return fmt.Errorf("the round delivered no work (%d cells, %d attempts)", plain.cells, plain.attempts)
	}

	l.set("trace.overhead_share", (traced.cost.wall.Seconds()-plain.cost.wall.Seconds())/plain.cost.wall.Seconds())
	l.set("engine.useful_attempt_ratio", float64(plain.jobs)/float64(plain.attempts))
	l.set("core.plan_builds", float64(plan1.PlanBuilds-plan0.PlanBuilds))
	l.set("core.plan_retrievals", float64(plan1.PlanRetrievals-plan0.PlanRetrievals))
	l.set("core.dax_builds", float64(plan1.MemberDAXBuilds-plan0.MemberDAXBuilds))
	l.set("core.dax_retrievals", float64(plan1.MemberDAXRetrievals-plan0.MemberDAXRetrievals))
	l.set("runtime.gc_cycles", float64(used.gcs))
	share := 0.0
	if cpu1 > cpu0 {
		share = (gc1 - gc0) / (cpu1 - cpu0)
	}
	l.set("runtime.gc_cpu_share", share)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	l.set("runtime.heap_peak_mb", float64(mem.HeapSys)/(1<<20))
	l.set("runtime.peak_rss_mb", peakRSSMiB())
	l.set("core.cold_pass_s", inst.coldPass().Seconds())

	srv1 := serverCounters(inst)
	ratio := 0.0
	if lookups := srv1.hits - srv0.hits + srv1.misses - srv0.misses; lookups > 0 {
		ratio = (srv1.hits - srv0.hits) / lookups
	}
	l.set("resultcache.hit_ratio", ratio)
	l.set("resultcache.evictions", srv1.evictions-srv0.evictions)
	l.set("server.aborted_streams", srv1.aborted-srv0.aborted)
	l.set("server.refused_429", srv1.refused-srv0.refused)

	// One worker: the same documents must give the same bytes, slower.
	speedup := 1.0
	if cfg.def.name != "big_run" { // one cell on one worker either way
		solo, err := cfg.def.setup(cfg.seed, cfg.sz, 1)
		if err != nil {
			return fmt.Errorf("one-worker set-up: %w", err)
		}
		one, err := solo.round(nil)
		solo.close()
		if err != nil {
			return fmt.Errorf("one-worker round: %w", err)
		}
		res.absorb(one)
		// A fresh instance's first round repeats the first round of the
		// set-up instance document for document, serve_miss included.
		if hexDigest(one.digest) != res.OutputSHA256 {
			res.problem("output with 1 worker differs from output with %d workers", workers)
		}
		speedup = (float64(plain.cells) / plain.cost.wall.Seconds()) / (float64(one.cells) / one.cost.wall.Seconds())
	}
	l.set("pool.speedup", speedup)

	l.layerSuite(tr, cfg.seed, cfg.sz, cfg.quick)
	res.Problems = append(res.Problems, l.problems...)
	for _, def := range perLayer {
		// A suite that hit a problem stops early; the problem is the report.
		if _, ok := l.values[def.Name]; !ok && len(l.problems) == 0 {
			return fmt.Errorf("layer metric %s was not measured", def.Name)
		}
	}
	res.Layers = l.values
	res.spans = tr.spans
	return nil
}

// printResult writes the human-readable report of one run.
func printResult(w io.Writer, res *runResult) {
	fmt.Fprintf(w, "== %s  seed %d  rounds %d  W=%d  nproc=%d GOMAXPROCS=%d %s kernel %s commit %s  load %.2f→%.2f\n",
		res.Workload, res.Seed, res.Rounds, res.Env.Workers, res.Env.NumCPU, res.Env.GOMAXPROCS,
		res.Env.GoVersion, res.Env.Kernel, res.Env.Commit, res.LoadStart, res.LoadEnd)
	fmt.Fprintf(w, "   operations %d  failed %d  failed_share %g  correct %v\n",
		res.Attempted, res.Failed, res.FailedShare, res.Correct)
	fmt.Fprintf(w, "   output_sha256 %s\n", res.OutputSHA256)
	if f := res.HostFactor; f != nil {
		fmt.Fprintf(w, "   host factor %.3f (spread over rounds %.3f): clock-derived metrics below are in reference time\n",
			f.Value, spread(f.Samples))
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "   PROBLEM: %s\n", p)
	}
	for _, def := range endToEnd {
		if v, ok := res.Metrics[def.Name]; ok {
			fmt.Fprintf(w, "   %-26s %14.4f %-10s (spread over rounds %.3f, bound %.2f)\n",
				def.Name, v.Value, v.Unit, spread(v.Samples), def.Bound)
		}
	}
	for _, def := range perLayer {
		if v, ok := res.Layers[def.Name]; ok {
			fmt.Fprintf(w, "   %-46s %14.4f %s\n", def.Name, v.Value, v.Unit)
		}
	}
}
