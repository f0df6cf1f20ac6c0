// Benchmark harness regenerating every figure of the paper's evaluation
// (the paper has no numbered tables; Fig. 4 and Fig. 5 are its entire
// quantitative content) plus the ablations of DESIGN.md and kernel
// benchmarks of the substrates.
//
// The figure benchmarks report the paper's metrics through b.ReportMetric:
// wall-clock seconds of simulated time appear as "wall_s", reductions as
// "reduction_%", per-task phase means as "kickstart_s" / "waiting_s" /
// "install_s". Run:
//
//	go test -bench=. -benchmem
package pegflow_test

import (
	"fmt"
	"testing"

	"pegflow/internal/bio/align"
	"pegflow/internal/bio/blast"
	"pegflow/internal/bio/blast2cap3"
	"pegflow/internal/bio/cap3"
	"pegflow/internal/bio/datagen"
	"pegflow/internal/core"
	"pegflow/internal/planner"
	"pegflow/internal/stats"
	"pegflow/internal/workflow"
)

const benchSeed = 42

// BenchmarkFig4SerialBaseline regenerates the serial bar of Fig. 4: the
// original single-process blast2cap3 (paper: 100 hours).
func BenchmarkFig4SerialBaseline(b *testing.B) {
	e := core.DefaultExperiment(benchSeed)
	var wall float64
	for i := 0; i < b.N; i++ {
		r, err := e.RunSerial()
		if err != nil {
			b.Fatal(err)
		}
		wall = r.WallTime()
	}
	b.ReportMetric(wall, "wall_s")
	b.ReportMetric(wall/3600, "wall_h")
}

// BenchmarkFig4WallTime regenerates the eight workflow bars of Fig. 4:
// both platforms at n ∈ {10,100,300,500}.
func BenchmarkFig4WallTime(b *testing.B) {
	for _, p := range core.Platforms {
		for _, n := range core.PaperNValues {
			p, n := p, n
			b.Run(fmt.Sprintf("%s/n=%d", p, n), func(b *testing.B) {
				e := core.DefaultExperiment(benchSeed)
				var wall float64
				var retries int
				for i := 0; i < b.N; i++ {
					r, err := e.RunWorkflow(p, n)
					if err != nil {
						b.Fatal(err)
					}
					wall = r.WallTime()
					retries = r.Result.Retries
				}
				b.ReportMetric(wall, "wall_s")
				b.ReportMetric(float64(retries), "retries")
			})
		}
	}
}

// BenchmarkFig4Reduction reports the paper's ">95% reduction" headline.
func BenchmarkFig4Reduction(b *testing.B) {
	e := core.DefaultExperiment(benchSeed)
	var red float64
	for i := 0; i < b.N; i++ {
		serial, err := e.RunSerial()
		if err != nil {
			b.Fatal(err)
		}
		best, err := e.RunWorkflow("sandhills", 300)
		if err != nil {
			b.Fatal(err)
		}
		red = stats.Reduction(serial.WallTime(), best.WallTime())
	}
	b.ReportMetric(100*red, "reduction_%")
}

// BenchmarkFig5PerTask regenerates the four panels of Fig. 5: per-task
// Kickstart / Waiting / Download-Install means for the run_cap3
// transformation on both platforms at every n.
func BenchmarkFig5PerTask(b *testing.B) {
	for _, p := range core.Platforms {
		for _, n := range core.PaperNValues {
			p, n := p, n
			b.Run(fmt.Sprintf("%s/n=%d", p, n), func(b *testing.B) {
				e := core.DefaultExperiment(benchSeed)
				var row stats.TaskStats
				for i := 0; i < b.N; i++ {
					r, err := e.RunWorkflow(p, n)
					if err != nil {
						b.Fatal(err)
					}
					for _, ts := range r.PerTask {
						if ts.Transformation == workflow.TrRunCAP3 {
							row = ts
						}
					}
				}
				b.ReportMetric(row.MeanKickstart, "kickstart_s")
				b.ReportMetric(row.MeanWaiting, "waiting_s")
				b.ReportMetric(row.MeanSetup, "install_s")
			})
		}
	}
}

// BenchmarkAblationInstallStep isolates the OSG download/install overhead
// (DESIGN.md A1, the paper's stated future work).
func BenchmarkAblationInstallStep(b *testing.B) {
	for _, pre := range []bool{false, true} {
		pre := pre
		name := "with-install"
		if pre {
			name = "preinstalled"
		}
		b.Run(name, func(b *testing.B) {
			e := core.DefaultExperiment(benchSeed)
			var wall float64
			for i := 0; i < b.N; i++ {
				r, err := e.RunVariant("osg", 300, core.Variant{PreinstallOSG: pre})
				if err != nil {
					b.Fatal(err)
				}
				wall = r.WallTime()
			}
			b.ReportMetric(wall, "wall_s")
		})
	}
}

// BenchmarkAblationPreemption isolates eviction cost at n=10, averaged
// over seeds (DESIGN.md A2).
func BenchmarkAblationPreemption(b *testing.B) {
	for _, ev := range []bool{true, false} {
		ev := ev
		name := "evictions-on"
		if !ev {
			name = "evictions-off"
		}
		b.Run(name, func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				mean = 0
				for s := uint64(0); s < 5; s++ {
					e := core.DefaultExperiment(benchSeed + s)
					r, err := e.RunVariant("osg", 10, core.Variant{DisablePreemption: !ev})
					if err != nil {
						b.Fatal(err)
					}
					mean += r.WallTime() / 5
				}
			}
			b.ReportMetric(mean, "wall_s")
		})
	}
}

// BenchmarkAblationClustering sweeps the Pegasus horizontal clustering
// factor (DESIGN.md A3).
func BenchmarkAblationClustering(b *testing.B) {
	for _, cs := range []int{1, 4, 16} {
		cs := cs
		b.Run(fmt.Sprintf("factor=%d", cs), func(b *testing.B) {
			e := core.DefaultExperiment(benchSeed)
			var wall float64
			for i := 0; i < b.N; i++ {
				r, err := e.RunClustered("sandhills", 500, planner.ClusterOptions{
					MaxTasksPerJob: cs, Transformations: []string{workflow.TrRunCAP3},
				})
				if err != nil {
					b.Fatal(err)
				}
				wall = r.WallTime()
			}
			b.ReportMetric(wall, "wall_s")
		})
	}
}

// BenchmarkAblationSkew sweeps the cluster-size rank exponent (DESIGN.md
// A4 — the mechanism behind the paper's plateau).
func BenchmarkAblationSkew(b *testing.B) {
	for _, sx := range []float64{0.25, 0.5, 1.0} {
		sx := sx
		b.Run(fmt.Sprintf("exponent=%.2f", sx), func(b *testing.B) {
			e := core.DefaultExperiment(benchSeed)
			var wall float64
			for i := 0; i < b.N; i++ {
				r, err := e.RunVariant("sandhills", 300, core.Variant{SizeExponent: sx})
				if err != nil {
					b.Fatal(err)
				}
				wall = r.WallTime()
			}
			b.ReportMetric(wall, "wall_s")
		})
	}
}

// BenchmarkClusterSweep regenerates the cluster-size sweep points behind
// BENCH_cluster.json on the overhead-dominated platform: the paper
// workload at fine decomposition on OSG, unclustered vs fixed-size
// bundles vs runtime-aware packing. wall_s is the simulated makespan;
// reduction_% is the cut vs the unclustered baseline.
func BenchmarkClusterSweep(b *testing.B) {
	configs := []struct {
		name string
		opts planner.ClusterOptions
	}{
		{"off", planner.ClusterOptions{}},
		{"max4", planner.ClusterOptions{MaxTasksPerJob: 4}},
		{"max8", planner.ClusterOptions{MaxTasksPerJob: 8}},
		{"target1800s", planner.ClusterOptions{TargetJobSeconds: 1800}},
	}
	n := core.DefaultClusterSweepN
	base := -1.0
	for _, cfg := range configs {
		cfg := cfg
		b.Run(fmt.Sprintf("osg/n=%d/%s", n, cfg.name), func(b *testing.B) {
			e := core.DefaultExperiment(benchSeed)
			var wall float64
			for i := 0; i < b.N; i++ {
				r, err := e.RunClustered("osg", n, cfg.opts)
				if err != nil {
					b.Fatal(err)
				}
				wall = r.WallTime()
			}
			if !cfg.opts.Enabled() {
				base = wall
			}
			b.ReportMetric(wall, "wall_s")
			if base > 0 {
				b.ReportMetric(100*stats.Reduction(base, wall), "reduction_%")
			}
		})
	}
}

// --- substrate kernels ---

// BenchmarkRealSerialVsParallel runs the real (non-simulated) blast2cap3
// pipeline on synthetic data, serial vs decomposed, verifying in passing
// that the decomposition is work-preserving.
func BenchmarkRealSerialVsParallel(b *testing.B) {
	ds, err := datagen.Generate(datagen.DefaultConfig(benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := blast2cap3.RunSerial(ds.Transcripts, ds.TruthHits, cap3.DefaultParams()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel-n=4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := blast2cap3.RunParallel(ds.Transcripts, ds.TruthHits, 4, cap3.DefaultParams()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCAP3Assemble measures the assembler kernel.
func BenchmarkCAP3Assemble(b *testing.B) {
	ds, err := datagen.Generate(datagen.Config{
		Proteins: 1, ProteinLen: 200, ClusterSizes: []int{8},
		FragmentLen: 300, OverlapLen: 120, MutationRate: 0.01, Seed: benchSeed,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cap3.Assemble(ds.Transcripts, cap3.DefaultParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBLASTXSearch measures the translated search kernel.
func BenchmarkBLASTXSearch(b *testing.B) {
	ds, err := datagen.Generate(datagen.DefaultConfig(benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	db, err := blast.NewDB(ds.Proteins, blast.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	query := ds.Transcripts[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Search(query.ID, query.Seq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverlapAlignment measures the dovetail DP kernel.
func BenchmarkOverlapAlignment(b *testing.B) {
	ds, err := datagen.Generate(datagen.DefaultConfig(benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	a := ds.Transcripts[0].Seq
	c := ds.Transcripts[1].Seq
	p := cap3.DefaultParams().Overlap
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		align.Overlap(a, c, p)
	}
}
