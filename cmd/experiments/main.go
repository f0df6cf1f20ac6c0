// Command experiments regenerates the paper's evaluation (Pavlovikj et
// al., IPDPSW 2014): Fig. 4 (workflow wall time on Sandhills vs OSG for
// n ∈ {10,100,300,500} plus the serial baseline), Fig. 5 (per-task
// Kickstart / Waiting / Download-Install breakdowns), the inline headline
// numbers, and the ablations listed in DESIGN.md. -fig seeds and -fig
// ensemble run the scenario documents under examples/scenarios/figures.
//
// Usage:
//
//	experiments [-seed N] [-workers N]
//	            [-fig 4|5|ablations|cloud|seeds|ensemble|cluster|all]
//	            [-bench-out sweep.json] [-cpuprofile cpu.out] [-memprofile mem.out]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"text/tabwriter"

	"pegflow/examples/scenarios/figures"
	"pegflow/internal/core"
	"pegflow/internal/kickstart"
	"pegflow/internal/planner"
	"pegflow/internal/scenario"
	"pegflow/internal/stats"
	"pegflow/internal/workflow"
)

var workers = flag.Int("workers", runtime.NumCPU(),
	"concurrent simulations for the evaluation grid and the figure documents' cells (results are identical for any value)")

func main() {
	seed := flag.Uint64("seed", 42, "experiment seed (42 is the canonical reproduction)")
	fig := flag.String("fig", "all", "which artifact to regenerate: 4, 5, ablations, cloud, seeds, ensemble, cluster, all")
	benchOut := flag.String("bench-out", "",
		"with -fig cluster (or all): also write the sweep as JSON to this file (e.g. BENCH_cluster.json)")
	cpuprofile := flag.String("cpuprofile", "",
		"write a pprof CPU profile of the run to this file (go tool pprof <binary> <file>)")
	memprofile := flag.String("memprofile", "",
		"write a pprof heap profile taken after the run to this file")
	flag.Parse()

	// Profiles are started/flushed without defers: run errors must still
	// exit non-zero AFTER the CPU profile is stopped and the heap profile
	// written, or failed runs would leave truncated profiles behind.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
	}
	err := run(*fig, *seed, *benchOut)
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		if perr := writeMemProfile(*memprofile); perr != nil && err == nil {
			err = perr
		}
	}
	if err != nil {
		fatal(err)
	}
}

func run(fig string, seed uint64, benchOut string) error {
	e := core.DefaultExperiment(seed)
	e.Workers = *workers
	switch fig {
	case "4":
		return fig4(e)
	case "5":
		return fig5(e)
	case "ablations":
		return ablations(e)
	case "cloud":
		return cloud(e)
	case "seeds":
		return seedsSweep(seed)
	case "ensemble":
		return ensembleSweep(seed)
	case "cluster":
		return clusterSweep(seed, benchOut)
	case "all":
		for _, f := range []func() error{
			func() error { return fig4(e) },
			func() error { return fig5(e) },
			func() error { return ablations(e) },
			func() error { return cloud(e) },
			func() error { return seedsSweep(seed) },
			func() error { return ensembleSweep(seed) },
			func() error { return clusterSweep(seed, benchOut) },
		} {
			if err := f(); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown -fig %q", fig)
	}
}

func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // settle the heap so the profile shows retention
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

func fig4(e *core.Experiment) error {
	fmt.Println("== Figure 4: workflow wall time, Sandhills vs OSG ==")
	all, err := e.RunAll()
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "RUN\tWALL TIME (s)\tWALL TIME\tRETRIES\tEVICTIONS")
	fmt.Fprintf(tw, "serial (1 core)\t%.0f\t%s\t0\t0\n",
		all.Serial.WallTime(), stats.HMS(all.Serial.WallTime()))
	for _, p := range core.Platforms {
		for _, n := range core.PaperNValues {
			r := all.Runs[p][n]
			fmt.Fprintf(tw, "%s n=%d\t%.0f\t%s\t%d\t%d\n",
				p, n, r.WallTime(), stats.HMS(r.WallTime()),
				r.Result.Retries, r.Result.Evictions)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Println("\n-- headline numbers --")
	serial := all.Serial.WallTime()
	best := all.BestWorkflowWallTime()
	fmt.Printf("serial baseline              : %s (paper: 100 hours)\n", stats.HMS(serial))
	fmt.Printf("best workflow                : %s\n", stats.HMS(best))
	fmt.Printf("reduction serial->workflow   : %.1f%% (paper: >95%%)\n",
		100*stats.Reduction(serial, best))
	s := all.Runs["sandhills"]
	fmt.Printf("sandhills n=10               : %.0f s (paper: 41,593 s)\n", s[10].WallTime())
	fmt.Printf("improvement n=10 -> n=100    : %.1f%% (paper: ~80%%)\n",
		100*stats.Reduction(s[10].WallTime(), s[100].WallTime()))
	bestN, bestW := 0, -1.0
	for _, n := range core.PaperNValues {
		if bestW < 0 || s[n].WallTime() < bestW {
			bestN, bestW = n, s[n].WallTime()
		}
	}
	fmt.Printf("optimal n on sandhills       : %d (paper: 300)\n\n", bestN)
	return nil
}

func fig5(e *core.Experiment) error {
	fmt.Println("== Figure 5: per-task running time breakdown ==")
	for _, n := range core.PaperNValues {
		fmt.Printf("\n-- n = %d --\n", n)
		for _, p := range core.Platforms {
			r, err := e.RunWorkflow(p, n)
			if err != nil {
				return err
			}
			fmt.Printf("[%s]  wall time %s\n", p, stats.HMS(r.WallTime()))
			if err := stats.WritePerTransformation(os.Stdout, r.PerTask); err != nil {
				return err
			}
			// Straggler profile: one batch call extracts and sorts each
			// metric once for all three quantiles.
			wait := stats.Percentiles(r.Result.Log,
				func(rec *kickstart.Record) float64 { return rec.Waiting() }, 50, 90, 99)
			exec := stats.Percentiles(r.Result.Log,
				func(rec *kickstart.Record) float64 { return rec.Exec() }, 50, 90, 99)
			fmt.Printf("waiting p50/p90/p99: %.0f/%.0f/%.0f s   kickstart p50/p90/p99: %.0f/%.0f/%.0f s\n",
				wait[0], wait[1], wait[2], exec[0], exec[1], exec[2])
		}
	}
	fmt.Println()
	return nil
}

func ablations(e *core.Experiment) error {
	fmt.Println("== Ablations (DESIGN.md A1-A4) ==")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ABLATION\tCONFIG\tWALL TIME (s)\tNOTE")

	base, err := e.RunWorkflow("osg", 300)
	if err != nil {
		return err
	}
	fmt.Fprintf(tw, "A1 install step\tosg n=300 (baseline)\t%.0f\tevery task downloads+installs\n", base.WallTime())
	pre, err := e.RunVariant("osg", 300, core.Variant{PreinstallOSG: true})
	if err != nil {
		return err
	}
	fmt.Fprintf(tw, "A1 install step\tosg n=300 preinstalled\t%.0f\tpaper's future work: shared software on OSG\n", pre.WallTime())

	// A2 averages over seeds at n=10, where an eviction forces a ~10-hour
	// task to rerun and single-seed noise would mask the effect.
	var withEv, withoutEv float64
	var evictions int
	const a2Seeds = 5
	for s := uint64(0); s < a2Seeds; s++ {
		e2 := core.DefaultExperiment(e.Seed + s)
		a, err := e2.RunWorkflow("osg", 10)
		if err != nil {
			return err
		}
		b, err := e2.RunVariant("osg", 10, core.Variant{DisablePreemption: true})
		if err != nil {
			return err
		}
		withEv += a.WallTime() / a2Seeds
		withoutEv += b.WallTime() / a2Seeds
		evictions += a.Result.Evictions
	}
	fmt.Fprintf(tw, "A2 preemption\tosg n=10 with eviction (mean of %d seeds)\t%.0f\t%d evictions total\n",
		a2Seeds, withEv, evictions)
	fmt.Fprintf(tw, "A2 preemption\tosg n=10 no eviction (mean of %d seeds)\t%.0f\t\n",
		a2Seeds, withoutEv)

	for _, cs := range []int{1, 4, 16} {
		r, err := e.RunClustered("sandhills", 500, planner.ClusterOptions{
			MaxTasksPerJob: cs, Transformations: []string{workflow.TrRunCAP3},
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "A3 task clustering\tsandhills n=500 factor %d\t%.0f\t%d jobs\n",
			cs, r.WallTime(), len(r.Result.Completed)+len(r.Result.Unfinished))
	}

	// A4: the plateau tracks the largest cluster's CAP3 time (the
	// unsplittable makespan floor), whatever the total work is.
	for _, sx := range []float64{0.25, 0.5, 1.0} {
		r, err := e.RunVariant("sandhills", 300, core.Variant{SizeExponent: sx})
		if err != nil {
			return err
		}
		w := workflow.CustomWorkload(workflow.WorkloadParams{
			NumClusters: 40000, MaxClusterSize: 600, SizeExponent: sx, MeanReadLen: 1500,
		}, e.Seed)
		cm := workflow.DefaultCostModel()
		floor := cm.ClusterSeconds(w.Clusters[0])
		note := fmt.Sprintf("largest-cluster floor %.0f s, wall/floor %.2f", floor, r.WallTime()/floor)
		if sx == 0.5 {
			note += " (paper workload)"
		}
		fmt.Fprintf(tw, "A4 cluster skew\tsandhills n=300 exponent %.2f\t%.0f\t%s\n", sx, r.WallTime(), note)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Println("\n-- serial work check (cost model vs workload) --")
	cm := workflow.DefaultCostModel()
	fmt.Printf("serial blast2cap3 estimate: %s\n\n", stats.HMS(cm.SerialSeconds(e.Workload)))
	return nil
}

// canonicalSeed is the seed the figure documents are written at: -seed N
// shifts each of their seeds by N - canonicalSeed, so the default runs them
// exactly as checked in.
const canonicalSeed = 42

// figureRow is the part of a scenario cell row the figures render.
type figureRow struct {
	N                    int     `json:"n"`
	Policy               string  `json:"policy"`
	Makespan             float64 `json:"makespan_s"`
	MeanWorkflowMakespan float64 `json:"mean_workflow_makespan_s"`
	Retries              int     `json:"retries"`
	Evictions            int     `json:"evictions"`
	Failovers            int     `json:"failovers"`
}

// runFigure runs the embedded figure document name with its seeds shifted
// for seed, and returns the document and its cell rows in grid order.
func runFigure(name string, seed uint64) (*scenario.Doc, []figureRow, error) {
	data, err := figures.FS.ReadFile(name)
	if err != nil {
		return nil, nil, err
	}
	doc, err := scenario.Parse(name, data)
	if err != nil {
		return nil, nil, err
	}
	for i := range doc.Workload.Seeds {
		doc.Workload.Seeds[i] += seed - canonicalSeed
	}
	c, err := scenario.Compile(doc)
	if err != nil {
		return nil, nil, err
	}
	lines, err := c.Run(scenario.RunOptions{Workers: *workers})
	if err != nil {
		return nil, nil, err
	}
	rows := make([]figureRow, len(c.Cells))
	for i := range rows {
		// Line 0 is the header, cell i is line i+1.
		if err := json.Unmarshal(lines[i+1], &rows[i]); err != nil {
			return nil, nil, fmt.Errorf("%s: cell %d: %w", name, i, err)
		}
	}
	return doc, rows, nil
}

// spread summarizes a figure cell's values over its seeds.
type spread struct {
	mean, stddev, min, median, max float64
}

// spreadOf summarizes vals (at least one): the mean sums them in the order
// given, the standard deviation is the sample one.
func spreadOf(vals []float64) spread {
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	k := len(sorted)
	s := spread{min: sorted[0], max: sorted[k-1], median: sorted[k/2]}
	if k%2 == 0 {
		s.median = (sorted[k/2-1] + sorted[k/2]) / 2
	}
	var sum, sumsq float64
	for _, v := range vals {
		sum += v
	}
	s.mean = sum / float64(k)
	for _, v := range vals {
		sumsq += (v - s.mean) * (v - s.mean)
	}
	if k > 1 {
		s.stddev = math.Sqrt(sumsq / float64(k-1))
	}
	return s
}

// cv returns the coefficient of variation (stddev/mean).
func (s spread) cv() float64 {
	if s.mean == 0 {
		return 0
	}
	return s.stddev / s.mean
}

// seedSweep is -fig seeds: the serial baseline and every (site, n) cell of
// seeds.json, summarized over the document's seeds.
type seedSweep struct {
	seeds  []uint64
	serial spread
	cells  []seedCell
	sites  []string // in document order
	// optimal counts, per site, how often each n was a seed's fastest (the
	// paper's "optimum at 300" as a distribution).
	optimal map[string]map[int]int
}

// seedCell is one (site, n) cell of the seed sweep.
type seedCell struct {
	site      string
	n         int
	walls     spread
	evictions int
}

// runSeedSweep runs seeds.json and the serial baseline at each of its seeds.
func runSeedSweep(seed uint64) (*seedSweep, error) {
	doc, rows, err := runFigure("seeds.json", seed)
	if err != nil {
		return nil, err
	}
	seeds := doc.Workload.Seeds
	sw := &seedSweep{seeds: seeds, optimal: make(map[string]map[int]int)}
	serial := make([]float64, len(seeds))
	for i, s := range seeds {
		r, err := core.DefaultExperiment(s).RunSerial()
		if err != nil {
			return nil, err
		}
		serial[i] = r.WallTime()
	}
	sw.serial = spreadOf(serial)
	// Rows come in grid order, site set then n then seed, one per seed and
	// n of each set; a seed's tie keeps the n listed first.
	if len(rows) != len(doc.SiteSets)*len(doc.Workload.N)*len(seeds) {
		return nil, fmt.Errorf("seeds.json: %d cells, want one per site set, n and seed", len(rows))
	}
	for _, set := range doc.SiteSets {
		site := strings.Join(set, "+")
		fastest := make([]figureRow, len(seeds))
		for range doc.Workload.N {
			cell := seedCell{site: site, n: rows[0].N}
			walls := make([]float64, len(seeds))
			for i, r := range rows[:len(seeds)] {
				walls[i] = r.Makespan
				cell.evictions += r.Evictions
				if fastest[i].N == 0 || r.Makespan < fastest[i].Makespan {
					fastest[i] = r
				}
			}
			cell.walls, rows = spreadOf(walls), rows[len(seeds):]
			sw.cells = append(sw.cells, cell)
		}
		sw.sites, sw.optimal[site] = append(sw.sites, site), make(map[int]int)
		for _, r := range fastest {
			sw.optimal[site][r.N]++
		}
	}
	return sw, nil
}

// seedsSweep quantifies run-to-run variability over the seeds of seeds.json
// (paper §VI.A: results "may vary for every new run due to the availability
// of the current resources").
func seedsSweep(seed uint64) error {
	sw, err := runSeedSweep(seed)
	if err != nil {
		return err
	}
	fmt.Printf("== Seed sweep: wall-time distribution over %d seeds ==\n", len(sw.seeds))
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "CELL\tMEAN (s)\tSTDDEV\tCV\tMIN\tMEDIAN\tMAX\tEVICTIONS")
	s := sw.serial
	fmt.Fprintf(tw, "serial\t%.0f\t%.0f\t%.3f\t%.0f\t%.0f\t%.0f\t0\n",
		s.mean, s.stddev, s.cv(), s.min, s.median, s.max)
	for _, c := range sw.cells {
		w := c.walls
		fmt.Fprintf(tw, "%s n=%d\t%.0f\t%.0f\t%.3f\t%.0f\t%.0f\t%.0f\t%d\n",
			c.site, c.n, w.mean, w.stddev, w.cv(), w.min, w.median, w.max, c.evictions)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("\noptimal n per platform (count over %d seeds):\n", len(sw.seeds))
	for _, site := range sw.sites {
		fmt.Printf("  %-10s %v\n", site, sw.optimal[site])
	}
	fmt.Println()
	return nil
}

// ensembleFigures are -fig ensemble's documents, in table order, and the
// suffix that marks their rows.
var ensembleFigures = []struct{ name, suffix string }{
	{"ensemble.json", ""},
	{"ensemble-cluster4-failover.json", " +cluster4/failover"},
}

// ensembleSweep compares site-selection policies for an ensemble over a
// heterogeneous pair of sites — the multi-site/ensemble extension of the
// paper's platform comparison — plain and with task clustering + cross-site
// failover enabled (the scheduling subsystem's ensemble-level effect). A
// row summarizes one policy of a document over its seeds.
func ensembleSweep(seed uint64) error {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "POLICY\tMEAN MAKESPAN (s)\tMIN\tMAX\tMEAN WF MAKESPAN (s)\tRETRIES\tEVICTIONS\tFAILOVERS")
	for i, fig := range ensembleFigures {
		doc, rows, err := runFigure(fig.name, seed)
		if err != nil {
			return err
		}
		if i == 0 {
			fmt.Printf("== Ensemble: site-selection policies, %d workflows x %d sites, %d seeds ==\n",
				doc.Ensemble.Workflows, len(doc.Sites), len(doc.Workload.Seeds))
		}
		for _, policy := range doc.Policies.Site {
			var makespans, wfMakespans []float64
			var retries, evictions, failovers int
			for _, r := range rows {
				if r.Policy == policy {
					makespans = append(makespans, r.Makespan)
					wfMakespans = append(wfMakespans, r.MeanWorkflowMakespan)
					retries += r.Retries
					evictions += r.Evictions
					failovers += r.Failovers
				}
			}
			m := spreadOf(makespans)
			fmt.Fprintf(tw, "%s%s\t%.0f\t%.0f\t%.0f\t%.0f\t%d\t%d\t%d\n", policy, fig.suffix,
				m.mean, m.min, m.max, spreadOf(wfMakespans).mean, retries, evictions, failovers)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

// clusterSweep runs the cluster-size sweep — the new experiment axis the
// clustering subsystem opens: at fine decomposition (n=2000, tasks well
// beyond both slot pools), how much makespan does bundling tasks into
// composite grid jobs buy on the overhead-dominated OSG vs the dedicated
// campus cluster?
func clusterSweep(seed uint64, benchOut string) error {
	n := core.DefaultClusterSweepN
	fmt.Printf("== Cluster-size sweep: n=%d, Sandhills vs OSG ==\n", n)
	points, err := core.ClusterSweep(seed, n, nil, nil, *workers)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "PLATFORM\tCLUSTERING\tGRID JOBS\tWALL TIME (s)\tREDUCTION\tWAIT/TASK (s)\tINSTALL/TASK (s)")
	for _, p := range points {
		label := "off"
		switch {
		case p.MaxTasksPerJob > 0:
			label = fmt.Sprintf("max %d tasks", p.MaxTasksPerJob)
		case p.TargetJobSeconds > 0:
			label = fmt.Sprintf("target %.0f s", p.TargetJobSeconds)
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.0f\t%+.1f%%\t%.0f\t%.0f\n",
			p.Platform, label, p.GridJobs, p.Makespan, p.ReductionPct, p.MeanWaiting, p.MeanSetup)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Println()
	if benchOut == "" {
		return nil
	}
	f, err := os.Create(benchOut)
	if err != nil {
		return err
	}
	bench := &core.ClusterBench{Experiment: "cluster-size-sweep", Seed: seed, N: n, Points: points}
	if err := bench.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("cluster sweep written to %s\n\n", benchOut)
	return nil
}

// cloud runs the three-platform comparison of the paper's future work
// (§VII) and prints an execution timeline per platform at n=300.
func cloud(e *core.Experiment) error {
	fmt.Println("== Future work (paper §VII): cloud as a third platform ==")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "PLATFORM\tN\tWALL TIME (s)\tWALL TIME\tEVICTIONS")
	results := map[string]*core.RunResult{}
	for _, p := range core.ExtendedPlatforms {
		for _, n := range core.PaperNValues {
			r, err := e.RunWorkflow(p, n)
			if err != nil {
				return err
			}
			if n == 300 {
				results[p] = r
			}
			fmt.Fprintf(tw, "%s\t%d\t%.0f\t%s\t%d\n",
				p, n, r.WallTime(), stats.HMS(r.WallTime()), r.Result.Evictions)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, p := range core.ExtendedPlatforms {
		fmt.Printf("\n-- execution timeline, %s n=300 --\n", p)
		tl := stats.BuildTimeline(results[p].Result.Log, 16)
		if err := stats.WriteTimeline(os.Stdout, tl, 56); err != nil {
			return err
		}
	}
	fmt.Println()
	return nil
}
