// Command experiments regenerates the paper's evaluation (Pavlovikj et
// al., IPDPSW 2014): Fig. 4 (workflow wall time on Sandhills vs OSG for
// n ∈ {10,100,300,500} plus the serial baseline), Fig. 5 (per-task
// Kickstart / Waiting / Download-Install breakdowns), the inline headline
// numbers, the ablations listed in DESIGN.md, and the post-paper axes
// (cloud, seed sweep, ensemble policies, cluster-size sweep). Every figure
// runs scenario documents under examples/scenarios/figures and renders
// their rows; `pegflow scenario run` prints the same rows.
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
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"text/tabwriter"

	"pegflow/examples/scenarios/figures"
	"pegflow/internal/scenario"
	"pegflow/internal/stats"
	"pegflow/internal/workflow"
)

var workers = flag.Int("workers", runtime.NumCPU(),
	"concurrent simulations for the figure documents' cells (results are identical for any value)")

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
	err := run(os.Stdout, *fig, *seed, *benchOut)
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

// run writes figure fig ("all": every figure, in order) at seed to w.
func run(w io.Writer, fig string, seed uint64, benchOut string) error {
	figs := []struct {
		name string
		run  func() error
	}{
		{"4", func() error { return fig4(w, seed) }},
		{"5", func() error { return fig5(w, seed) }},
		{"ablations", func() error { return ablations(w, seed) }},
		{"cloud", func() error { return cloud(w, seed) }},
		{"seeds", func() error { return seedsSweep(w, seed) }},
		{"ensemble", func() error { return ensembleSweep(w, seed) }},
		{"cluster", func() error { return clusterSweep(w, seed, benchOut) }},
	}
	ran := false
	for _, f := range figs {
		if fig == "all" || fig == f.name {
			ran = true
			if err := f.run(); err != nil {
				return err
			}
		}
	}
	if !ran {
		return fmt.Errorf("unknown -fig %q", fig)
	}
	return nil
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

// serialSeconds is the wall time of the serial blast2cap3 baseline on one
// dedicated Sandhills core (paper §V.B: 100 hours) at seed: the cost
// model's serial running time of the paper workload, as a runtime profile
// carries it. One job on one noiseless slot runs exactly that long.
func serialSeconds(seed uint64) float64 {
	return workflow.RoundMillis(workflow.DefaultCostModel().SerialSeconds(workflow.PaperWorkload(seed)))
}

// fig4 renders paper-grid.json's wall times beside the serial baseline.
func fig4(w io.Writer, seed uint64) error {
	fmt.Fprintln(w, "== Figure 4: workflow wall time, Sandhills vs OSG ==")
	_, rows, err := runFigure("paper-grid.json", seed)
	if err != nil {
		return err
	}
	serial := serialSeconds(seed)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "RUN\tWALL TIME (s)\tWALL TIME\tRETRIES\tEVICTIONS")
	fmt.Fprintf(tw, "serial (1 core)\t%.0f\t%s\t0\t0\n", serial, stats.HMS(serial))
	best := -1.0
	for _, r := range rows {
		fmt.Fprintf(tw, "%s n=%d\t%.0f\t%s\t%d\t%d\n",
			r.site(), r.N, r.Makespan, stats.HMS(r.Makespan), r.Retries, r.Evictions)
		if best < 0 || r.Makespan < best {
			best = r.Makespan
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintln(w, "\n-- headline numbers --")
	fmt.Fprintf(w, "serial baseline              : %s (paper: 100 hours)\n", stats.HMS(serial))
	fmt.Fprintf(w, "best workflow                : %s\n", stats.HMS(best))
	fmt.Fprintf(w, "reduction serial->workflow   : %.1f%% (paper: >95%%)\n",
		100*stats.Reduction(serial, best))
	s10, err := rowAt(rows, "sandhills", 10)
	if err != nil {
		return err
	}
	s100, err := rowAt(rows, "sandhills", 100)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "sandhills n=10               : %.0f s (paper: 41,593 s)\n", s10.Makespan)
	fmt.Fprintf(w, "improvement n=10 -> n=100    : %.1f%% (paper: ~80%%)\n",
		100*stats.Reduction(s10.Makespan, s100.Makespan))
	var fastest figureRow
	for _, r := range rows {
		if r.site() == "sandhills" && (fastest.N == 0 || r.Makespan < fastest.Makespan) {
			fastest = r
		}
	}
	fmt.Fprintf(w, "optimal n on sandhills       : %d (paper: 300)\n\n", fastest.N)
	return nil
}

// fig5 renders paper-grid.json's per-transformation tables and straggler
// percentiles, n by n.
func fig5(w io.Writer, seed uint64) error {
	fmt.Fprintln(w, "== Figure 5: per-task running time breakdown ==")
	c, rows, err := runFigure("paper-grid.json", seed)
	if err != nil {
		return err
	}
	// Rows come site set by site set, n by n within each.
	ns := c.Doc.Workload.N
	for ni, n := range ns {
		fmt.Fprintf(w, "\n-- n = %d --\n", n)
		for si := range c.Doc.SiteSets {
			r := rows[si*len(ns)+ni]
			fmt.Fprintf(w, "[%s]  wall time %s\n", r.site(), stats.HMS(r.Makespan))
			if err := stats.WritePerTransformation(w, r.PerTransformation[0]); err != nil {
				return err
			}
			fmt.Fprintf(w, "waiting p50/p90/p99: %.0f/%.0f/%.0f s   kickstart p50/p90/p99: %.0f/%.0f/%.0f s\n",
				r.WaitingP50, r.WaitingP90, r.WaitingP99, r.KickstartP50, r.KickstartP90, r.KickstartP99)
		}
	}
	fmt.Fprintln(w)
	return nil
}

// a4Figures are A4's documents, one per size exponent.
var a4Figures = []string{"a4-skew-0.25.json", "a4-skew-0.5.json", "a4-skew-1.0.json"}

// ablations renders DESIGN.md's A1-A4 from their documents.
func ablations(w io.Writer, seed uint64) error {
	fmt.Fprintln(w, "== Ablations (DESIGN.md A1-A4) ==")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ABLATION\tCONFIG\tWALL TIME (s)\tNOTE")

	_, grid, err := runFigure("paper-grid.json", seed)
	if err != nil {
		return err
	}
	base, err := rowAt(grid, "osg", 300)
	if err != nil {
		return err
	}
	fmt.Fprintf(tw, "A1 install step\tosg n=300 (baseline)\t%.0f\tevery task downloads+installs\n", base.Makespan)
	_, pre, err := runFigure("a1-preinstalled.json", seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(tw, "A1 install step\t%s n=%d preinstalled\t%.0f\tpaper's future work: shared software on OSG\n",
		pre[0].site(), pre[0].N, pre[0].Makespan)

	// A2 averages over seeds at n=10, where an eviction forces a ~10-hour
	// task to rerun and single-seed noise would mask the effect.
	_, withEv, err := runFigure("a2-evictions.json", seed)
	if err != nil {
		return err
	}
	_, withoutEv, err := runFigure("a2-no-evictions.json", seed)
	if err != nil {
		return err
	}
	k := float64(len(withEv))
	var meanWith, meanWithout float64
	var evictions int
	for i := range withEv {
		meanWith += withEv[i].Makespan / k
		meanWithout += withoutEv[i].Makespan / k
		evictions += withEv[i].Evictions
	}
	fmt.Fprintf(tw, "A2 preemption\t%s n=%d with eviction (mean of %d seeds)\t%.0f\t%d evictions total\n",
		withEv[0].site(), withEv[0].N, len(withEv), meanWith, evictions)
	fmt.Fprintf(tw, "A2 preemption\t%s n=%d no eviction (mean of %d seeds)\t%.0f\t\n",
		withoutEv[0].site(), withoutEv[0].N, len(withoutEv), meanWithout)

	_, a3, err := runFigure("a3-clustering.json", seed)
	if err != nil {
		return err
	}
	for _, r := range a3 {
		fmt.Fprintf(tw, "A3 task clustering\t%s n=%d factor %d\t%.0f\t%d jobs\n",
			r.site(), r.N, r.ClusterMaxTasks, r.Makespan, r.GridJobs)
	}

	// A4: the plateau tracks the largest cluster's CAP3 time (the
	// unsplittable makespan floor), whatever the total work is.
	cm := workflow.DefaultCostModel()
	for _, name := range a4Figures {
		c, rows, err := runFigure(name, seed)
		if err != nil {
			return err
		}
		r, p := rows[0], c.Doc.Workload.Params
		wl := workflow.CustomWorkload(workflow.WorkloadParams{
			NumClusters: p.NumClusters, MaxClusterSize: p.MaxClusterSize,
			SizeExponent: p.SizeExponent, MeanReadLen: p.MeanReadLen,
		}, r.Seed)
		floor := cm.ClusterSeconds(wl.Clusters[0])
		note := fmt.Sprintf("largest-cluster floor %.0f s, wall/floor %.2f", floor, r.Makespan/floor)
		if p.SizeExponent == 0.5 {
			note += " (paper workload)"
		}
		fmt.Fprintf(tw, "A4 cluster skew\t%s n=%d exponent %.2f\t%.0f\t%s\n",
			r.site(), r.N, p.SizeExponent, r.Makespan, note)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintln(w, "\n-- serial work check (cost model vs workload) --")
	fmt.Fprintf(w, "serial blast2cap3 estimate: %s\n\n", stats.HMS(cm.SerialSeconds(workflow.PaperWorkload(seed))))
	return nil
}

// canonicalSeed is the seed the figure documents are written at: -seed N
// shifts each of their seeds by N - canonicalSeed, so the default runs them
// exactly as checked in.
const canonicalSeed = 42

// figureRow is the part of a scenario cell row the figures render.
type figureRow struct {
	Sites                []string `json:"sites"`
	N                    int      `json:"n"`
	Seed                 uint64   `json:"seed"`
	Policy               string   `json:"policy"`
	ClusterMaxTasks      int      `json:"cluster_max_tasks"`
	ClusterTarget        float64  `json:"cluster_target_s"`
	Makespan             float64  `json:"makespan_s"`
	MeanWorkflowMakespan float64  `json:"mean_workflow_makespan_s"`
	CumulativeKickstart  float64  `json:"cumulative_kickstart_s"`
	Jobs                 int      `json:"jobs"`
	GridJobs             int      `json:"grid_jobs"`
	Retries              int      `json:"retries"`
	Evictions            int      `json:"evictions"`
	Failovers            int      `json:"failovers"`
	// PerTransformation holds one table per member workflow.
	PerTransformation [][]stats.TaskStats `json:"per_transformation"`
	KickstartP50      float64             `json:"kickstart_p50"`
	KickstartP90      float64             `json:"kickstart_p90"`
	KickstartP99      float64             `json:"kickstart_p99"`
	WaitingP50        float64             `json:"waiting_p50"`
	WaitingP90        float64             `json:"waiting_p90"`
	WaitingP99        float64             `json:"waiting_p99"`
}

// site names the row's site set as the figures print it.
func (r *figureRow) site() string { return strings.Join(r.Sites, "+") }

// task returns the row's first member's statistics for transformation tr.
func (r *figureRow) task(tr string) stats.TaskStats {
	for _, ts := range r.PerTransformation[0] {
		if ts.Transformation == tr {
			return ts
		}
	}
	return stats.TaskStats{Transformation: tr}
}

// rowAt returns the first row of rows on site at n.
func rowAt(rows []figureRow, site string, n int) (figureRow, error) {
	for _, r := range rows {
		if r.site() == site && r.N == n {
			return r, nil
		}
	}
	return figureRow{}, fmt.Errorf("no %s n=%d cell", site, n)
}

// runFigure runs the embedded figure document name with its seeds shifted
// for seed, and returns the compiled document and its cell rows in order.
func runFigure(name string, seed uint64) (*scenario.Compiled, []figureRow, error) {
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
	return c, rows, nil
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
	c, rows, err := runFigure("seeds.json", seed)
	if err != nil {
		return nil, err
	}
	seeds := c.Doc.Workload.Seeds
	sw := &seedSweep{seeds: seeds, optimal: make(map[string]map[int]int)}
	serial := make([]float64, len(seeds))
	for i, s := range seeds {
		serial[i] = serialSeconds(s)
	}
	sw.serial = spreadOf(serial)
	// Rows come in grid order, site set then n then seed, one per seed and
	// n of each set; a seed's tie keeps the n listed first.
	if len(rows) != len(c.Doc.SiteSets)*len(c.Doc.Workload.N)*len(seeds) {
		return nil, fmt.Errorf("seeds.json: %d cells, want one per site set, n and seed", len(rows))
	}
	for _, set := range c.Doc.SiteSets {
		site := strings.Join(set, "+")
		fastest := make([]figureRow, len(seeds))
		for range c.Doc.Workload.N {
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
func seedsSweep(w io.Writer, seed uint64) error {
	sw, err := runSeedSweep(seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== Seed sweep: wall-time distribution over %d seeds ==\n", len(sw.seeds))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
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
	fmt.Fprintf(w, "\noptimal n per platform (count over %d seeds):\n", len(sw.seeds))
	for _, site := range sw.sites {
		fmt.Fprintf(w, "  %-10s %v\n", site, sw.optimal[site])
	}
	fmt.Fprintln(w)
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
func ensembleSweep(w io.Writer, seed uint64) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "POLICY\tMEAN MAKESPAN (s)\tMIN\tMAX\tMEAN WF MAKESPAN (s)\tRETRIES\tEVICTIONS\tFAILOVERS")
	for i, fig := range ensembleFigures {
		c, rows, err := runFigure(fig.name, seed)
		if err != nil {
			return err
		}
		if i == 0 {
			fmt.Fprintf(w, "== Ensemble: site-selection policies, %d workflows x %d sites, %d seeds ==\n",
				c.Doc.Ensemble.Workflows, len(c.Doc.Sites), len(c.Doc.Workload.Seeds))
		}
		for _, policy := range c.Doc.Policies.Site {
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
	fmt.Fprintln(w)
	return nil
}

// clusterPoint is one cell of the cluster-size sweep in BENCH_cluster.json.
type clusterPoint struct {
	// Platform is the simulated platform the cell ran on.
	Platform string `json:"platform"`
	// MaxTasksPerJob and TargetJobSeconds echo the clustering options of
	// the cell (both zero for the unclustered baseline).
	MaxTasksPerJob   int     `json:"max_tasks_per_job,omitempty"`
	TargetJobSeconds float64 `json:"target_job_seconds,omitempty"`
	// GridJobs is the number of jobs DAGMan ran after clustering.
	GridJobs int `json:"grid_jobs"`
	// Makespan is the workflow wall time in simulated seconds.
	Makespan float64 `json:"makespan_s"`
	// ReductionPct is the makespan reduction vs. the platform's
	// unclustered baseline, in percent (negative = clustering hurt).
	ReductionPct float64 `json:"reduction_pct"`
	// MeanWaiting and MeanSetup are the run_cap3 per-task phase means —
	// the overhead clustering amortizes.
	MeanWaiting float64 `json:"mean_waiting_s"`
	MeanSetup   float64 `json:"mean_install_s"`
	// Retries and Evictions echo the engine counters.
	Retries   int `json:"retries"`
	Evictions int `json:"evictions"`
}

// clusterBench is BENCH_cluster.json, the sweep's perf-trajectory artifact.
type clusterBench struct {
	Experiment string         `json:"experiment"`
	Seed       uint64         `json:"seed"`
	N          int            `json:"n"`
	Points     []clusterPoint `json:"points"`
}

// clusterSweep renders cluster.json — the axis the clustering subsystem
// opens: at fine decomposition (tasks well beyond both slot pools), how
// much makespan does bundling tasks into composite grid jobs buy on the
// overhead-dominated OSG vs the dedicated campus cluster? Each platform's
// first clustering option is its unclustered baseline.
func clusterSweep(w io.Writer, seed uint64, benchOut string) error {
	c, rows, err := runFigure("cluster.json", seed)
	if err != nil {
		return err
	}
	bench := clusterBench{Experiment: c.Doc.Name, Seed: c.Doc.Workload.Seeds[0], N: c.Doc.Workload.N[0]}
	fmt.Fprintf(w, "== Cluster-size sweep: n=%d, Sandhills vs OSG ==\n", bench.N)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "PLATFORM\tCLUSTERING\tGRID JOBS\tWALL TIME (s)\tREDUCTION\tWAIT/TASK (s)\tINSTALL/TASK (s)")
	perSite := len(rows) / len(c.Doc.SiteSets)
	for i, r := range rows {
		cap3 := r.task(workflow.TrRunCAP3)
		p := clusterPoint{
			Platform:         r.site(),
			MaxTasksPerJob:   r.ClusterMaxTasks,
			TargetJobSeconds: r.ClusterTarget,
			GridJobs:         r.GridJobs,
			Makespan:         r.Makespan,
			ReductionPct:     100 * stats.Reduction(rows[i-i%perSite].Makespan, r.Makespan),
			MeanWaiting:      cap3.MeanWaiting,
			MeanSetup:        cap3.MeanSetup,
			Retries:          r.Retries,
			Evictions:        r.Evictions,
		}
		bench.Points = append(bench.Points, p)
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
	fmt.Fprintln(w)
	if benchOut == "" {
		return nil
	}
	f, err := os.Create(benchOut)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&bench); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "cluster sweep written to %s\n\n", benchOut)
	return nil
}

// cloud renders cloud.json, the three-platform comparison of the paper's
// future work (§VII), and an execution timeline per platform at n=300,
// from the row's own cell run again, since rows hold no attempt records.
func cloud(w io.Writer, seed uint64) error {
	fmt.Fprintln(w, "== Future work (paper §VII): cloud as a third platform ==")
	c, rows, err := runFigure("cloud.json", seed)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "PLATFORM\tN\tWALL TIME (s)\tWALL TIME\tEVICTIONS")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%s\t%d\n",
			r.site(), r.N, r.Makespan, stats.HMS(r.Makespan), r.Evictions)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for i, r := range rows {
		if r.N != 300 {
			continue
		}
		fmt.Fprintf(w, "\n-- execution timeline, %s n=%d --\n", r.site(), r.N)
		res, err := c.Simulate(c.Cells[i])
		if err != nil {
			return err
		}
		err = stats.WriteTimeline(w, stats.BuildTimeline(res.Workflows[0].Result.Log, 16), 56)
		res.Release()
		if err != nil {
			return err
		}
	}
	fmt.Fprintln(w)
	return nil
}
