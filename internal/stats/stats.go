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
	// Jobs is the number of jobs that succeeded (each succeeds once).
	Jobs int
	// Attempts is the total number of attempts, including failures.
	Attempts int
	// Failures counts non-success attempts.
	Failures int
	// Retries counts failures another attempt of the same grid job
	// followed — the engine's re-submissions (kickstart.Tally.Retries).
	Retries int
}

// Summarize computes workflow-level statistics from a log's running
// tally and the engine-reported makespan, in either log mode and without
// walking records.
func Summarize(log *kickstart.Log, makespan float64) Summary {
	t := log.Tally()
	return Summary{
		WallTime:              makespan,
		CumulativeJobWallTime: t.CumulativeTotal,
		CumulativeKickstart:   t.CumulativeExec,
		Jobs:                  t.Successes,
		Attempts:              t.Attempts,
		Failures:              t.Failed + t.Evicted,
		Retries:               t.Retries(),
	}
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
// sorted by transformation name: sums accumulated in record order, means
// derived by one division.
func PerTransformation(log *kickstart.Log) []TaskStats {
	m := log.ByTransformation()
	out := make([]TaskStats, 0, len(m))
	for _, n := range sortedKeys(m) {
		a := m[n]
		c := float64(a.Count)
		out = append(out, TaskStats{
			Transformation: n,
			Count:          a.Count,
			MeanKickstart:  a.SumExec / c,
			MeanWaiting:    a.SumWait / c,
			MeanSetup:      a.SumSetup / c,
			MaxKickstart:   a.MaxExec,
			MaxWaiting:     a.MaxWait,
			TotalKickstart: a.SumExec,
		})
	}
	return out
}

// sortedKeys returns a table's keys in sorted order — the deterministic
// row order of every per-key report.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
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
