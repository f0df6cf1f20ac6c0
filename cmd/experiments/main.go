// Command experiments regenerates the paper's evaluation (Pavlovikj et
// al., IPDPSW 2014): Fig. 4 (workflow wall time on Sandhills vs OSG for
// n ∈ {10,100,300,500} plus the serial baseline), Fig. 5 (per-task
// Kickstart / Waiting / Download-Install breakdowns), the inline headline
// numbers, and the ablations listed in DESIGN.md.
//
// Usage:
//
//	experiments [-seed N] [-workers N]
//	            [-fig 4|5|ablations|cloud|seeds|ensemble|cluster|all]
//	            [-bench-out sweep.json] [-cpuprofile cpu.out] [-memprofile mem.out]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"text/tabwriter"

	"pegflow/internal/core"
	"pegflow/internal/kickstart"
	"pegflow/internal/planner"
	"pegflow/internal/stats"
	"pegflow/internal/workflow"
)

var workers = flag.Int("workers", runtime.NumCPU(),
	"concurrent simulations for the evaluation grid and the seed sweep (results are identical for any value)")

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

// seedsSweep quantifies run-to-run variability over 10 seeds (paper
// §VI.A: results "may vary for every new run due to the availability of
// the current resources").
func seedsSweep(base uint64) error {
	fmt.Println("== Seed sweep: wall-time distribution over 10 seeds ==")
	sw, err := core.MonteCarloSweep(base, 10, core.SweepOptions{
		Workers: *workers,
		Progress: func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rsweep: %d/%d cells", done, total)
		},
	})
	fmt.Fprintln(os.Stderr)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "CELL\tMEAN (s)\tSTDDEV\tCV\tMIN\tMEDIAN\tMAX\tEVICTIONS")
	fmt.Fprintf(tw, "serial\t%.0f\t%.0f\t%.3f\t%.0f\t%.0f\t%.0f\t0\n",
		sw.Serial.Mean, sw.Serial.Stddev, sw.Serial.CV(), sw.Serial.Min, sw.Serial.Median, sw.Serial.Max)
	for _, p := range core.Platforms {
		for _, n := range core.PaperNValues {
			c := sw.Cells[p][n]
			fmt.Fprintf(tw, "%s n=%d\t%.0f\t%.0f\t%.3f\t%.0f\t%.0f\t%.0f\t%d\n",
				p, n, c.Mean, c.Stddev, c.CV(), c.Min, c.Median, c.Max, c.Evictions)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Println("\noptimal n per platform (count over 10 seeds):")
	for _, p := range core.Platforms {
		fmt.Printf("  %-10s %v\n", p, sw.OptimalNCounts[p])
	}
	fmt.Println()
	return nil
}

// ensembleSweep compares site-selection policies for an 8-workflow
// ensemble over 5 seeds on the heterogeneous bench fixture — the
// multi-site/ensemble extension of the paper's platform comparison — and
// repeats the comparison with task clustering + cross-site failover
// enabled (the scheduling subsystem's ensemble-level effect).
func ensembleSweep(base uint64) error {
	fmt.Println("== Ensemble: site-selection policies, 8 workflows x 2 sites, 5 seeds ==")
	const runs = 5
	plain := func(seed uint64, policy string) (*core.EnsembleExperiment, error) {
		return core.HeteroBenchEnsemble(seed, 8, 24, policy)
	}
	clustered := func(seed uint64, policy string) (*core.EnsembleExperiment, error) {
		e, err := core.HeteroBenchEnsemble(seed, 8, 24, policy)
		if err != nil {
			return nil, err
		}
		e.Cluster = planner.ClusterOptions{MaxTasksPerJob: 4}
		e.Failover = true
		return e, nil
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "POLICY\tMEAN MAKESPAN (s)\tMIN\tMAX\tMEAN WF MAKESPAN (s)\tRETRIES\tEVICTIONS\tFAILOVERS")
	for _, v := range []struct {
		suffix string
		build  func(uint64, string) (*core.EnsembleExperiment, error)
	}{
		{"", plain},
		{" +cluster4/failover", clustered},
	} {
		comp, err := core.ComparePolicies(base, runs, nil, *workers, v.build)
		if err != nil {
			return err
		}
		for _, ps := range comp {
			fmt.Fprintf(tw, "%s%s\t%.0f\t%.0f\t%.0f\t%.0f\t%d\t%d\t%d\n",
				ps.Policy, v.suffix, ps.MeanMakespan, ps.MinMakespan, ps.MaxMakespan,
				ps.MeanWorkflowMakespan, ps.TotalRetries, ps.TotalEvictions, ps.TotalFailovers)
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
