package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"pegflow/internal/core"
	"pegflow/internal/kickstart"
	"pegflow/internal/scenario"
	"pegflow/internal/server"
	"pegflow/internal/server/resultcache"
	"pegflow/internal/sim/des"
	"pegflow/internal/stats"
	"pegflow/internal/stats/quantile"
	"pegflow/internal/workflow"
)

// The layer suite: every per-layer metric that does not depend on which
// workload is running. It is the same in every traced run, so a change to
// one layer shows in its own numbers whichever workload's run is read.
// Sizes in metric names are the chunk counts of the three simulation
// workloads (n500, n2k, n100k) and of the n-curve (n1k, n10k, n100k).

// layerSet collects per-layer metric values and correctness findings.
type layerSet struct {
	values   map[string]value
	problems []string
}

func (l *layerSet) set(name string, v float64) {
	def := findMetric(perLayer, name)
	if def == nil {
		panic("bench: layer metric " + name + " is not declared in metrics.go")
	}
	l.values[name] = value{Value: v, Unit: def.Unit}
}

func (l *layerSet) problem(format string, args ...any) {
	l.problems = append(l.problems, fmt.Sprintf(format, args...))
}

func perUnit(d time.Duration, n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(d) / float64(n)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// paperParams is the paper preset's rank-size law, as scenario resolves it.
func paperParams() workflow.WorkloadParams { return workflow.PaperWorkload(0).Params }

// frontCell is what a one-cell document returned through the front door.
type frontCell struct {
	makespan float64
	attempts int
	cost     cost
}

// frontDoorCell runs a one-cell document through Parse → Compile → Run.
func frontDoorCell(doc []byte) (frontCell, error) {
	var lines [][]byte
	c, err := timed(func() error {
		d, err := scenario.Parse("bench", doc)
		if err != nil {
			return err
		}
		comp, err := scenario.Compile(d)
		if err != nil {
			return err
		}
		lines, err = comp.Run(scenario.RunOptions{Workers: 1})
		return err
	})
	if err != nil {
		return frontCell{}, err
	}
	if len(lines) != 3 {
		return frontCell{}, fmt.Errorf("want one cell, got %d lines", len(lines))
	}
	row := lines[1]
	if !bytes.Contains(row, keySuccess) {
		return frontCell{}, fmt.Errorf("cell did not succeed: %s", row)
	}
	return frontCell{floatAfter(row, keyMakespan), intAfter(row, keyAttempts), c}, nil
}

// layerSuite measures the workload-independent layer metrics.
func (l *layerSet) layerSuite(tr *tracer, seed uint64, sz sizes, quick bool) {
	reps := 3
	if quick {
		reps = 1
	}
	l.singleSite(tr, seed, sz, reps)
	l.ensemblePath(tr, seed, sz)
	l.kernelLoops(sz)
	l.foldLoops(sz)
	l.scenarioAndServe(seed, sz, quick)
}

// singleSite replays the plan-cached path at the small and the big chunk
// count, measures the n-curve through the front door, and derives the
// patch cost and the replay's coverage of a warm cell.
func (l *layerSet) singleSite(tr *tracer, seed uint64, sz sizes, reps int) {
	// Small: one paper_sweep cell (osg, exact statistics), replayed often
	// enough that microsecond stages are resolved.
	small := singleCell{
		params: paperParams(), site: "osg", n: sz.replaySmallN, seed: seed + 100,
		sandSlots: 300, osgSlots: 600, retries: 5, percentiles: []float64{50, 90, 99},
	}
	smallDoc := render(doc{
		"version": 1, "name": "bench-replay-small",
		"sites": []doc{{"preset": "osg", "slots": 600}}, "site_sets": [][]string{{"osg"}},
		"workload": doc{"preset": "paper", "n": []int{small.n}, "seeds": []uint64{small.seed}},
		"outputs":  doc{"percentiles": small.percentiles},
	})
	wantSmall, err := frontDoorCell(smallDoc)
	if err != nil {
		l.problem("front door, n=%d: %v", small.n, err)
		return
	}
	var acc singleReplay
	acc.stages = make(map[string]cost)
	smallReps := 20 * reps
	for i := 0; i < smallReps; i++ {
		rep, err := replaySingle(tr, small, false)
		if err != nil {
			l.problem("single-site replay, n=%d: %v", small.n, err)
			return
		}
		if rep.makespan != wantSmall.makespan {
			l.problem("single-site replay, n=%d: makespan %v, the scenario row says %v", small.n, rep.makespan, wantSmall.makespan)
			return
		}
		for name, c := range rep.stages {
			acc.stages[name] = acc.stages[name].plus(c)
		}
		acc.platformTime += rep.platformTime
		acc.engineSelf += rep.engineSelf
		acc.attempts += rep.attempts
		acc.planJobs += rep.planJobs
		acc.log = rep.log
	}
	jobs := acc.planJobs
	l.set("workflow.build_dax_ns_per_job.n500", perUnit(acc.stages["workflow.build_dax"].wall, jobs))
	l.set("planner.new_ns_per_job.n500", perUnit(acc.stages["planner.new"].wall, jobs))
	l.set("planner.clone_ns_per_job.n500", perUnit(acc.stages["planner.clone"].wall, jobs))
	l.set("workflow.chunk_seconds_ns_per_job.n500", perUnit(acc.stages["workflow.chunk_seconds"].wall, jobs))
	l.set("platform.new_executor_us", us(acc.stages["platform.new_executor"].wall)/float64(smallReps))
	l.set("engine.self_ns_per_attempt.n500", perUnit(acc.engineSelf, acc.attempts))
	l.set("platform.ns_per_attempt.n500", perUnit(acc.platformTime, acc.attempts))
	l.statsLoops(acc.log)

	// The n-curve, through the front door: cold once (that builds the
	// plan), then warm. The biggest size is also the cell the big replay
	// is compared with.
	curve := [3]string{"n1k", "n10k", "n100k"}
	var warmBig frontCell // the median warm cell at the biggest size
	var perAttempt [3]float64
	for i, n := range sz.curveN {
		d := bigRunDoc(seed, n)
		core.ResetPlanCache()
		if _, err := frontDoorCell(d); err != nil {
			l.problem("front door, n=%d: %v", n, err)
			return
		}
		warm := make([]frontCell, reps)
		walls := make([]float64, reps)
		for k := range warm {
			if warm[k], err = frontDoorCell(d); err != nil {
				l.problem("front door, n=%d: %v", n, err)
				return
			}
			walls[k] = float64(warm[k].cost.wall)
		}
		warmBig = warm[0]
		warmBig.cost.wall = time.Duration(median(walls))
		perAttempt[i] = perUnit(warmBig.cost.wall, warmBig.attempts)
		l.set("core.warm_ns_per_attempt."+curve[i], perAttempt[i])
	}
	if perAttempt[0] > 0 {
		l.set("core.ncurve_ratio", perAttempt[2]/perAttempt[0])
	}
	core.ResetPlanCache() // the replay below holds its own plan; free the cache's

	// Big: the big_run cell, replayed once with allocation counts.
	big := singleCell{
		params: paperParams(), site: "osg", n: sz.curveN[2], seed: seed,
		sandSlots: 300, osgSlots: 600, retries: 1000, aggregate: true,
		percentiles: []float64{50, 90, 99},
	}
	rep, err := replaySingle(tr, big, true)
	if err != nil {
		l.problem("single-site replay, n=%d: %v", big.n, err)
		return
	}
	if rep.makespan != warmBig.makespan || rep.attempts != warmBig.attempts {
		l.problem("single-site replay, n=%d: makespan %v over %d attempts, the scenario row says %v over %d",
			big.n, rep.makespan, rep.attempts, warmBig.makespan, warmBig.attempts)
	}
	jobs = rep.planJobs
	l.set("workflow.build_dax_ns_per_job.n100k", perUnit(rep.stages["workflow.build_dax"].wall, jobs))
	l.set("planner.new_ns_per_job.n100k", perUnit(rep.stages["planner.new"].wall, jobs))
	l.set("planner.clone_ns_per_job.n100k", perUnit(rep.stages["planner.clone"].wall, jobs))
	l.set("planner.clone_allocs_per_job.n100k", float64(rep.stages["planner.clone"].mallocs)/float64(jobs))
	l.set("workflow.chunk_seconds_ns_per_job.n100k", perUnit(rep.stages["workflow.chunk_seconds"].wall, jobs))
	l.set("engine.self_ns_per_attempt.n100k", perUnit(rep.engineSelf, rep.attempts))
	l.set("engine.run_allocs_per_attempt.n100k", float64(rep.stages["engine.run"].mallocs)/float64(rep.attempts))
	l.set("platform.ns_per_attempt.n100k", perUnit(rep.platformTime, rep.attempts))
	replayed := rep.warmTotal().wall
	patch := warmBig.cost.wall - replayed
	if patch < 0 {
		patch = 0
	}
	l.set("core.patch_ns_per_job.n100k", perUnit(patch, jobs))
	l.set("trace.replay_coverage.n100k", float64(replayed)/float64(warmBig.cost.wall))
	l.attribution(rep, warmBig.cost)
}

// attribution splits a warm big_run cell's allocations per attempt across
// the stages that own them — the first deliverable of ROADMAP item 1. The
// replayed stages are counted directly; what the front-door cell
// allocates beyond them is the plan cache's patch step, booked with the
// chunk-runtime computation it follows.
func (l *layerSet) attribution(rep *singleReplay, cell cost) {
	st := rep.stages
	statsCost := st["stats.summarize"].plus(st["stats.per_transformation"]).
		plus(st["stats.percentiles"]).plus(st["json.marshal"])
	replayed := rep.warmTotal()
	rest := cost{}
	if cell.mallocs > replayed.mallocs {
		rest.mallocs = cell.mallocs - replayed.mallocs
	}
	if cell.bytes > replayed.bytes {
		rest.bytes = cell.bytes - replayed.bytes
	}
	for _, row := range []struct {
		name string
		c    cost
	}{
		{"clone", st["planner.clone"]},
		{"chunk_patch", st["workflow.chunk_seconds"].plus(rest)},
		{"executor", st["platform.new_executor"]},
		{"engine_run", st["engine.run"]},
		{"stats", statsCost},
	} {
		l.set("attribution."+row.name+".allocs_per_attempt", float64(row.c.mallocs)/float64(rep.attempts))
		l.set("attribution."+row.name+".bytes_per_attempt", float64(row.c.bytes)/float64(rep.attempts))
	}
}

// statsLoops times the exact-statistics consumers over one cell's log.
func (l *layerSet) statsLoops(log *kickstart.Log) {
	records := log.Len()
	const passes = 200
	start := time.Now()
	for i := 0; i < passes; i++ {
		stats.Summarize(log, 1)
	}
	l.set("stats.summarize_ns_per_record", perUnit(time.Since(start), passes*records))
	start = time.Now()
	for i := 0; i < passes; i++ {
		stats.PerTransformation(log)
	}
	l.set("stats.per_transformation_ns_per_record", perUnit(time.Since(start), passes*records))
	values := successValues(log, (*kickstart.Record).Exec)
	start = time.Now()
	for i := 0; i < passes; i++ {
		stats.PercentilesOf(values, 50, 90, 99)
	}
	l.set("stats.percentiles_ns_per_value", perUnit(time.Since(start), passes*len(values)))
}

// ensemblePath replays two failover_ensemble cells — one per clustering
// configuration of the document, because clustering changes what a run
// costs per attempt by an order of magnitude — and reports them together,
// as the workload mixes them.
func (l *layerSet) ensemblePath(tr *tracer, seed uint64, sz sizes) {
	cell := ensembleCell{
		params: workflow.WorkloadParams{
			NumClusters: sz.ensClusters, MaxClusterSize: 300, SizeExponent: 0.5, MeanReadLen: 1200,
		},
		n: sz.replayEnsN, seed: seed + 100, workflows: sz.ensWorkflows, policy: "data-aware",
		allocSlots: 100, spotSlots: 300, spotEviction: 5e-5,
		retries: 8, backoffBase: 30, backoffCap: 600, faults: churnFaults(),
	}
	total := make(map[string]cost)
	var jobs, attempts, multiAttempts int
	var multiPlatform time.Duration
	for _, target := range []float64{0, 1800} {
		cell.targetSeconds = target
		want, err := frontDoorCell(ensembleCellDoc(cell, sz))
		if err != nil {
			l.problem("front door, ensemble cell: %v", err)
			return
		}
		rep, err := replayEnsemble(tr, cell)
		if err != nil {
			l.problem("ensemble replay: %v", err)
			return
		}
		if rep.makespan != want.makespan || rep.attempts != want.attempts {
			l.problem("ensemble replay, target %v s: makespan %v over %d attempts, the scenario row says %v over %d",
				target, rep.makespan, rep.attempts, want.makespan, want.attempts)
		}
		for name, c := range rep.stages {
			total[name] = total[name].plus(c)
		}
		jobs += rep.memberJobs
		attempts += rep.attempts
		multiAttempts += rep.multiAttempts
		multiPlatform += rep.multiPlatform
		if target > 0 {
			l.set("planner.cluster_ns_per_job.n2k", perUnit(rep.stages["planner.cluster"].wall, rep.memberJobs/cell.workflows))
		}
	}
	l.set("dax.clone_ns_per_job.n2k", perUnit(total["dax.clone"].wall, jobs))
	l.set("ensemble.plan_all_ns_per_job.n2k", perUnit(total["ensemble.plan_all"].wall, jobs))
	l.set("ensemble.run_ns_per_attempt.n2k", perUnit(total["ensemble.run"].wall, attempts))
	l.set("planner.new_multi_ns_per_job.n2k", perUnit(total["planner.new_multi"].wall, jobs/cell.workflows))
	l.set("platform.multi_ns_per_attempt.n2k", perUnit(multiPlatform, multiAttempts))
	l.set("fault.compile_us", us(total["fault.compile"].wall)/2)
}

// ensembleCellDoc is the one-cell scenario document of an ensemble cell.
func ensembleCellDoc(c ensembleCell, sz sizes) []byte {
	return render(doc{
		"version": 1,
		"name":    "bench-replay-ensemble",
		"sites": []doc{
			{"name": "alloc", "preset": "sandhills", "slots": c.allocSlots},
			{"name": "spot", "preset": "osg", "slots": c.spotSlots, "eviction_rate": c.spotEviction},
		},
		"workload": doc{
			"params": doc{
				"num_clusters": c.params.NumClusters, "max_cluster_size": c.params.MaxClusterSize,
				"size_exponent": c.params.SizeExponent, "mean_read_len": c.params.MeanReadLen,
			},
			"n": []int{c.n}, "seeds": []uint64{c.seed},
		},
		"policies": doc{
			"site":     []string{c.policy},
			"cluster":  []doc{{"target_seconds": c.targetSeconds}},
			"failover": []bool{true},
		},
		"retries":       c.retries,
		"retry_backoff": doc{"base_s": c.backoffBase, "cap_s": c.backoffCap},
		"faults":        c.faults,
		"ensemble":      doc{"workflows": c.workflows},
	})
}

// kernelLoops times the DES kernel as tight loops over its exported API:
// its cost cannot be split out of a run from outside.
func (l *layerSet) kernelLoops(sz sizes) {
	fn := func() {}
	for _, depth := range []struct {
		name string
		n    int
	}{{"depth64", 64}, {"depth100k", sz.curveN[2]}} {
		sim := des.New()
		for i := 0; i < depth.n; i++ {
			sim.After(float64(i+1), fn)
		}
		start := time.Now()
		for i := 0; i < sz.loopIters; i++ {
			sim.After(float64(depth.n+1), fn)
			sim.Step()
		}
		l.set("des.schedule_fire_ns."+depth.name, perUnit(time.Since(start), sz.loopIters))
	}
	sim := des.New()
	res := des.NewResource(sim, 1)
	release := func() { res.Release(1) }
	start := time.Now()
	for i := 0; i < sz.loopIters; i++ {
		res.Acquire(1, release)
		for sim.Step() {
		}
	}
	l.set("des.acquire_release_ns", perUnit(time.Since(start), sz.loopIters))
}

// foldLoops times the kickstart log in both modes and the sketch it
// feeds, over a small ring of distinct successful records.
func (l *layerSet) foldLoops(sz sizes) {
	ring := make([]*kickstart.Record, 64)
	for i := range ring {
		t := float64(i)
		ring[i] = &kickstart.Record{
			JobID: fmt.Sprintf("job_%02d", i), Transformation: workflow.TrRunCAP3, Site: "osg",
			Attempt: 1, SubmitTime: t, SetupStart: t + 40 + t/3, ExecStart: t + 500, EndTime: t + 900 + 7*t,
			Status: kickstart.StatusSuccess,
		}
	}
	for _, mode := range []struct {
		name      string
		aggregate bool
	}{{"kickstart.append_aggregate_ns", true}, {"kickstart.append_exact_ns", false}} {
		log := &kickstart.Log{}
		if mode.aggregate {
			log.SetAggregate()
		}
		start := time.Now()
		for i := 0; i < sz.loopIters; i++ {
			if err := log.Append(ring[i&63]); err != nil {
				l.problem("%s: %v", mode.name, err)
				return
			}
		}
		l.set(mode.name, perUnit(time.Since(start), sz.loopIters))
	}
	sk := quantile.NewSketch()
	start := time.Now()
	for i := 0; i < sz.loopIters; i++ {
		sk.Add(float64((i * 2654435761) & 0xfffff))
	}
	l.set("quantile.sketch_add_ns", perUnit(time.Since(start), sz.loopIters))
}

// scenarioAndServe times the request path's layers one at a time on the
// serve family's first shape: parse, compile, an all-hit Run, the result
// cache by itself, the handler without a socket, and the socket.
func (l *layerSet) scenarioAndServe(seed uint64, sz sizes, quick bool) {
	iters := 2000
	if quick {
		iters = 50
	}
	d := serveDoc(0, primeSeed(seed), sz)
	var parsed *scenario.Doc
	var err error
	start := time.Now()
	for i := 0; i < iters; i++ {
		if parsed, err = scenario.Parse("bench", d); err != nil {
			l.problem("scenario.Parse: %v", err)
			return
		}
	}
	l.set("scenario.parse_us", us(time.Since(start))/float64(iters))
	var comp *scenario.Compiled
	start = time.Now()
	for i := 0; i < iters; i++ {
		// Compile mutates its document (defaults), as the server's does.
		if comp, err = scenario.Compile(parsed); err != nil {
			l.problem("scenario.Compile: %v", err)
			return
		}
	}
	l.set("scenario.compile_us", us(time.Since(start))/float64(iters))

	cache := resultcache.New(server.DefaultCacheBytes)
	lines, err := comp.Run(scenario.RunOptions{Workers: 1, Cache: cache})
	if err != nil {
		l.problem("scenario.Run: %v", err)
		return
	}
	cells := len(comp.Cells)
	var rowBytes int
	for _, row := range lines[1 : 1+cells] {
		rowBytes += len(row)
	}
	l.set("scenario.row_bytes", float64(rowBytes)/float64(cells))
	start = time.Now()
	for i := 0; i < iters; i++ {
		if _, err := comp.Run(scenario.RunOptions{Workers: 1, Cache: cache}); err != nil {
			l.problem("scenario.Run on a warm cache: %v", err)
			return
		}
	}
	l.set("scenario.hit_run_us_per_cell", us(time.Since(start))/float64(iters*cells))
	if st := cache.Stats(); st.Misses != uint64(cells) {
		l.problem("all-hit Run missed the cache: %d misses, want %d", st.Misses, cells)
	}

	// The result cache by itself: distinct keys, one shared line.
	keys := sz.loopIters / 10
	big := resultcache.New(1 << 30)
	fps := make([]string, 256)
	for i := range fps {
		fps[i] = fmt.Sprintf("%064x", uint64(i)*0x9e3779b97f4a7c15)
	}
	line := lines[1]
	start = time.Now()
	for i := 0; i < keys; i++ {
		big.Put(fps[i&255], i>>8, line)
	}
	l.set("resultcache.put_ns", perUnit(time.Since(start), keys))
	start = time.Now()
	for i := 0; i < keys; i++ {
		if _, ok := big.Get(fps[i&255], i>>8); !ok {
			l.problem("resultcache.Get missed a key it was given")
			return
		}
	}
	l.set("resultcache.get_hit_ns", perUnit(time.Since(start), keys))

	// The handler without a socket, then one client over loopback; the
	// difference is the transport's share of a hit.
	srv := server.New(server.Options{Workers: 1})
	post := func(body []byte) *http.Request {
		return httptest.NewRequest(http.MethodPost, "/v1/scenarios/run", bytes.NewReader(body))
	}
	prime := httptest.NewRecorder()
	srv.ServeHTTP(prime, post(d))
	want := prime.Body.Bytes()
	start = time.Now()
	for i := 0; i < iters; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, post(d))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			l.problem("handler hit: status %d or a different body", rec.Code)
			return
		}
	}
	l.set("server.handler_hit_us", us(time.Since(start))/float64(iters))
	misses := iters / 10
	if misses < 4 {
		misses = 4
	}
	docs := make([][]byte, misses)
	for i := range docs {
		docs[i] = serveDoc(0, missSeed(seed, 200, i), sz)
	}
	start = time.Now()
	for i := range docs {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, post(docs[i]))
		if out := checkBody(rec.Body.Bytes()); rec.Code != http.StatusOK || out.failed > 0 {
			l.problem("handler miss: status %d, %d failed cells", rec.Code, out.failed)
			return
		}
	}
	l.set("server.handler_miss_us", us(time.Since(start))/float64(misses))

	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()
	defer client.CloseIdleConnections()
	var buf bytes.Buffer
	start = time.Now()
	for i := 0; i < iters; i++ {
		resp, err := client.Post(ts.URL+"/v1/scenarios/run", "application/json", bytes.NewReader(d))
		if err != nil {
			l.problem("http hit: %v", err)
			return
		}
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(buf.Bytes(), want) {
			l.problem("http hit: status %d, err %v, or a different body", resp.StatusCode, err)
			return
		}
	}
	l.set("server.http_hit_us", us(time.Since(start))/float64(iters))

	// Plan-cold requests: novel workload params, so every cell builds a
	// master plan. Kept as a layer metric only (README, "Rejected").
	core.ResetPlanCache()
	cold := server.New(server.Options{Workers: 1})
	cpu0 := cpuTime()
	for i := 0; i < sz.coldRequests; i++ {
		rec := httptest.NewRecorder()
		cold.ServeHTTP(rec, post(planColdDoc(i, primeSeed(seed), sz)))
		if out := checkBody(rec.Body.Bytes()); rec.Code != http.StatusOK || out.failed > 0 {
			l.problem("plan-cold request: status %d, %d failed cells", rec.Code, out.failed)
			return
		}
	}
	l.set("core.plan_cold_ms_per_request", ms(cpuTime()-cpu0)/float64(sz.coldRequests))
	core.ResetPlanCache()
}
