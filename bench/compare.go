package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// -compare: the tool for "two sets of runs agree" and for every later
// change's before/after. Per (end-to-end metric, workload) it prints both
// medians, the ratio with its base, the spreads, and a verdict against
// the metric's bound.

const (
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictUnchanged  = "unchanged"
)

// side is one file's evidence for one (metric, workload) pair.
type side struct {
	values []float64 // one per run
	rounds []float64 // the per-round samples of the first run
}

func (s side) median() float64 { return median(s.values) }

// spread is the run-to-run spread where there are enough runs to take
// quartiles of, and the round-to-round spread of the one run otherwise.
func (s side) spread() float64 {
	if len(s.values) >= 4 {
		return spread(s.values)
	}
	return spread(s.rounds)
}

// verdict judges b against a (the base). worse is the share of a's median
// by which b's is worse (negative: better).
func verdict(def metricDef, a, b side) (worse float64, v string) {
	ma, mb := a.median(), b.median()
	if ma != 0 {
		worse = (mb - ma) / ma
		if def.Better == "higher" {
			worse = -worse
		}
	}
	noise := a.spread()
	if s := b.spread(); s > noise {
		noise = s
	}
	switch {
	case worse > def.Bound:
		return worse, verdictRegressed
	case noise > def.Bound && !allBetter(def, a.values, b.values):
		// Too noisy to call unchanged — unless every run of b reads better
		// than every run of a, which no noise explains away.
		return worse, verdictUnresolved
	default:
		return worse, verdictUnchanged
	}
}

// allBetter reports whether every value of b is better than every value
// of a.
func allBetter(def metricDef, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if (def.Better == "lower" && y >= x) || (def.Better == "higher" && y <= x) {
				return false
			}
		}
	}
	return true
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, this build reads %q", path, rep.Schema, reportSchema)
	}
	return rep, nil
}

// side gathers one workload's evidence for one metric from a report.
func (r *report) side(workload, metric string) side {
	var s side
	for _, run := range r.Runs {
		if run.Workload != workload {
			continue
		}
		v, ok := run.Metrics[metric]
		if !ok {
			continue
		}
		if len(s.values) == 0 {
			s.rounds = v.Samples
		}
		s.values = append(s.values, v.Value)
	}
	return s
}

func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := loadReport(pathA)
	if err == nil {
		var b *report
		if b, err = loadReport(pathB); err == nil {
			return compareReports(a, b, stdout)
		}
	}
	fmt.Fprintf(stderr, "bench: %v\n", err)
	return 2
}

// compareReports prints the comparison and returns 1 if anything
// regressed, an operation failed, or outputs at the same seed differ.
func compareReports(a, b *report, w io.Writer) int {
	status := 0
	fmt.Fprintf(w, "base a: commit %s, %s, nproc %d; b: commit %s, %s, nproc %d\n",
		a.Env.Commit, a.Env.GoVersion, a.Env.NumCPU, b.Env.Commit, b.Env.GoVersion, b.Env.NumCPU)
	fmt.Fprintf(w, "%-18s %-24s %14s %14s %9s %8s %8s %6s  %s\n",
		"workload", "metric", "a (median)", "b (median)", "b/a", "spread a", "spread b", "bound", "verdict")
	for _, wl := range workloads {
		for _, def := range endToEnd {
			sa, sb := a.side(wl.name, def.Name), b.side(wl.name, def.Name)
			if len(sa.values) == 0 || len(sb.values) == 0 {
				continue
			}
			worse, v := verdict(def, sa, sb)
			if v == verdictRegressed {
				status = 1
			}
			ratio := 0.0
			if m := sa.median(); m != 0 {
				ratio = sb.median() / m
			}
			direction := "better"
			if worse > 0 {
				direction = "worse"
			}
			fmt.Fprintf(w, "%-18s %-24s %14.4f %14.4f %8.4fx %8.3f %8.3f %6.2f  %s (%.1f%% %s than a)\n",
				wl.name, def.Name, sa.median(), sb.median(), ratio, sa.spread(), sb.spread(), def.Bound,
				v, 100*math.Abs(worse), direction)
		}
	}
	compareLayers(a, b, w)
	// Simulated results are checked, not scored: the same workload at the
	// same seed must give the same bytes on both sides, and nothing may fail.
	digests := make(map[string]string)
	for _, run := range a.Runs {
		digests[fmt.Sprintf("%s/%d", run.Workload, run.Seed)] = run.OutputSHA256
	}
	same, differ := 0, 0
	for _, run := range b.Runs {
		if want, ok := digests[fmt.Sprintf("%s/%d", run.Workload, run.Seed)]; ok {
			if want == run.OutputSHA256 {
				same++
			} else {
				differ++
				fmt.Fprintf(w, "OUTPUT DIFFERS: %s seed %d: a %s, b %s\n", run.Workload, run.Seed, want, run.OutputSHA256)
			}
		}
	}
	fmt.Fprintf(w, "output_sha256: %d runs identical, %d differ\n", same, differ)
	for _, rep := range []*report{a, b} {
		for _, run := range rep.Runs {
			if !run.Correct {
				fmt.Fprintf(w, "NOT CORRECT: %s seed %d: failed_share %g, %d problems\n",
					run.Workload, run.Seed, run.FailedShare, len(run.Problems))
				status = 1
			}
		}
	}
	if differ > 0 {
		status = 1
	}
	return status
}

// layerSide gathers a per-layer metric's values: from one workload's
// traced runs, or from every traced run when workload is empty.
func (r *report) layerSide(workload, metric string) []float64 {
	var vs []float64
	for _, run := range r.Runs {
		if v, ok := run.Layers[metric]; ok && (workload == "" || run.Workload == workload) {
			vs = append(vs, v.Value)
		}
	}
	return vs
}

// compareLayers prints the per-layer metrics side by side, without a
// verdict: they have no bounds. They say where a change in an end-to-end
// number came from.
func compareLayers(a, b *report, w io.Writer) {
	row := func(workload string, def metricDef) {
		va, vb := a.layerSide(workload, def.Name), b.layerSide(workload, def.Name)
		if len(va) == 0 || len(vb) == 0 {
			return
		}
		ma, mb := median(va), median(vb)
		ratio := 0.0
		if ma != 0 {
			ratio = mb / ma
		}
		if workload == "" {
			workload = "(layer suite)"
		}
		fmt.Fprintf(w, "%-18s %-46s %14.4f %14.4f %8.4fx  %s\n", workload, def.Name, ma, mb, ratio, def.Unit)
	}
	for _, wl := range workloads {
		for _, def := range workloadLayers {
			row(wl.name, def)
		}
	}
	for _, def := range suiteLayers {
		row("", def)
	}
}

// printSpreads reports, after several runs per workload, the run-to-run
// spread of every end-to-end metric against a third of its bound — the
// steadiness the PR driver will ask of the benchmark.
func printSpreads(w io.Writer, rep *report) {
	fmt.Fprintf(w, "\n%-18s %-24s %14s %8s %8s\n", "workload", "metric", "median", "spread", "bound/3")
	for _, wl := range workloads {
		for _, def := range endToEnd {
			s := rep.side(wl.name, def.Name)
			if len(s.values) < 2 {
				continue
			}
			note := ""
			if sp := spread(s.values); sp > def.Bound/3 && def.Name != "setup_s" {
				note = "  <-- wider than a third of the bound"
			}
			fmt.Fprintf(w, "%-18s %-24s %14.4f %8.4f %8.4f%s\n",
				wl.name, def.Name, median(s.values), spread(s.values), def.Bound/3, note)
		}
	}
}
