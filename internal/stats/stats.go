package stats

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"

	"pegflow/internal/kickstart"
)

// Summary holds workflow-level statistics.
type Summary struct {
	// WallTime is the workflow wall time in seconds (makespan).
	WallTime float64
	// CumulativeJobWallTime sums submit-to-end time over successful
	// attempts (pegasus-statistics' "cumulative job wall time").
	CumulativeJobWallTime float64
	// CumulativeKickstart sums execution time over successful attempts.
	CumulativeKickstart float64
	// Jobs is the number of distinct jobs that succeeded.
	Jobs int
	// Attempts is the total number of attempts, including failures.
	Attempts int
	// Failures counts non-success attempts.
	Failures int
	// Retries counts attempts beyond the first per job.
	Retries int
}

// Summarize computes workflow-level statistics from a log and the
// engine-reported makespan. It consumes the log in a single pass —
// aggregating logs retain no records, so there is nothing to walk
// twice — reading folded accumulators directly when the log is in
// aggregation mode.
func Summarize(log *kickstart.Log, makespan float64) Summary {
	if agg := log.Aggregates(); agg != nil {
		s := Summary{
			WallTime:              makespan,
			CumulativeJobWallTime: agg.CumulativeTotal,
			CumulativeKickstart:   agg.CumulativeExec,
			Jobs:                  agg.SucceededJobs(),
			Attempts:              agg.Attempts,
			Failures:              agg.Failed + agg.Evicted,
		}
		s.Retries = s.Attempts - s.Jobs - agg.UnfinishedJobs()
		if s.Retries < 0 {
			s.Retries = 0
		}
		return s
	}
	s := Summary{WallTime: makespan, Attempts: log.Len()}
	succeeded := make(map[string]bool)
	// failedOnly holds jobs with a non-success record and no success so
	// far; a later success deletes the entry, so after the pass it is
	// exactly the never-succeeded job set.
	failedOnly := make(map[string]bool)
	for _, r := range log.Records() {
		if r.Status != kickstart.StatusSuccess {
			s.Failures++
			if !succeeded[r.JobID] {
				failedOnly[r.JobID] = true
			}
			continue
		}
		s.CumulativeJobWallTime += r.Total()
		s.CumulativeKickstart += r.Exec()
		if !succeeded[r.JobID] {
			succeeded[r.JobID] = true
			s.Jobs++
			delete(failedOnly, r.JobID)
		}
	}
	s.Retries = s.Attempts - s.Jobs - len(failedOnly)
	if s.Retries < 0 {
		s.Retries = 0
	}
	return s
}

// TaskStats aggregates per-transformation phase timings over successful
// attempts — one row of the paper's Fig. 5.
type TaskStats struct {
	// Transformation is the logical executable name.
	Transformation string `json:"transformation"`
	// Count is the number of successful attempts aggregated.
	Count int `json:"count"`
	// MeanKickstart, MeanWaiting and MeanSetup are phase means in
	// seconds ("Kickstart Time", "Waiting Time", "Download/Install
	// Time").
	MeanKickstart float64 `json:"mean_kickstart_s"`
	MeanWaiting   float64 `json:"mean_waiting_s"`
	MeanSetup     float64 `json:"mean_install_s"`
	// MaxKickstart and MaxWaiting expose stragglers.
	MaxKickstart float64 `json:"max_kickstart_s"`
	MaxWaiting   float64 `json:"max_waiting_s"`
	// TotalKickstart sums execution seconds.
	TotalKickstart float64 `json:"total_kickstart_s"`
}

// PerTransformation aggregates successful attempts by transformation,
// sorted by transformation name. Aggregating logs answer from their
// folded accumulators.
func PerTransformation(log *kickstart.Log) []TaskStats {
	if agg := log.Aggregates(); agg != nil {
		return accumRows(agg.ByTransformation)
	}
	byTr := make(map[string]*TaskStats)
	for _, r := range log.Successes() {
		ts := byTr[r.Transformation]
		if ts == nil {
			ts = &TaskStats{Transformation: r.Transformation}
			byTr[r.Transformation] = ts
		}
		ts.Count++
		ts.MeanKickstart += r.Exec()
		ts.MeanWaiting += r.Waiting()
		ts.MeanSetup += r.Setup()
		ts.TotalKickstart += r.Exec()
		if r.Exec() > ts.MaxKickstart {
			ts.MaxKickstart = r.Exec()
		}
		if r.Waiting() > ts.MaxWaiting {
			ts.MaxWaiting = r.Waiting()
		}
	}
	names := make([]string, 0, len(byTr))
	for n := range byTr {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]TaskStats, 0, len(names))
	for _, n := range names {
		ts := byTr[n]
		c := float64(ts.Count)
		ts.MeanKickstart /= c
		ts.MeanWaiting /= c
		ts.MeanSetup /= c
		out = append(out, *ts)
	}
	return out
}

// accumTaskStats converts a folded phase accumulator into the TaskStats
// row exact-mode aggregation would have produced: sums accumulated in
// record order, means derived by one division.
func accumTaskStats(name string, a *kickstart.PhaseAccum) TaskStats {
	c := float64(a.Count)
	return TaskStats{
		Transformation: name,
		Count:          a.Count,
		MeanKickstart:  a.SumExec / c,
		MeanWaiting:    a.SumWait / c,
		MeanSetup:      a.SumSetup / c,
		MaxKickstart:   a.MaxExec,
		MaxWaiting:     a.MaxWait,
		TotalKickstart: a.SumExec,
	}
}

// accumRows renders a keyed accumulator map as TaskStats rows sorted by
// key.
func accumRows(m map[string]*kickstart.PhaseAccum) []TaskStats {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]TaskStats, 0, len(names))
	for _, n := range names {
		out = append(out, accumTaskStats(n, m[n]))
	}
	return out
}

// Reduction returns the fractional running-time reduction of b relative
// to a: (a-b)/a. The paper's ">95%" claim is Reduction(serial, workflow).
func Reduction(a, b float64) float64 {
	if a <= 0 {
		return 0
	}
	return (a - b) / a
}

// WriteSummary renders the workflow summary as a pegasus-statistics-style
// text block.
func WriteSummary(w io.Writer, name string, s Summary) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# Workflow statistics: %s\n", name)
	fmt.Fprintf(&b, "Workflow Wall Time           : %12.1f s (%s)\n", s.WallTime, HMS(s.WallTime))
	fmt.Fprintf(&b, "Cumulative Job Wall Time     : %12.1f s (%s)\n", s.CumulativeJobWallTime, HMS(s.CumulativeJobWallTime))
	fmt.Fprintf(&b, "Cumulative Kickstart Time    : %12.1f s (%s)\n", s.CumulativeKickstart, HMS(s.CumulativeKickstart))
	fmt.Fprintf(&b, "Jobs succeeded               : %12d\n", s.Jobs)
	fmt.Fprintf(&b, "Total attempts               : %12d\n", s.Attempts)
	fmt.Fprintf(&b, "Failed attempts              : %12d\n", s.Failures)
	fmt.Fprintf(&b, "Retries                      : %12d\n", s.Retries)
	_, err := io.WriteString(w, b.String())
	return err
}

// WritePerTransformation renders Fig. 5-style per-task rows as a table.
func WritePerTransformation(w io.Writer, rows []TaskStats) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "TRANSFORMATION\tCOUNT\tKICKSTART(s)\tWAITING(s)\tDOWNLOAD/INSTALL(s)\tMAX KICKSTART(s)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t%.1f\t%.1f\n",
			r.Transformation, r.Count, r.MeanKickstart, r.MeanWaiting, r.MeanSetup, r.MaxKickstart)
	}
	return tw.Flush()
}

// HMS formats seconds as H:MM:SS.
func HMS(seconds float64) string {
	if seconds < 0 {
		seconds = 0
	}
	s := int64(seconds + 0.5)
	return fmt.Sprintf("%d:%02d:%02d", s/3600, (s%3600)/60, s%60)
}
