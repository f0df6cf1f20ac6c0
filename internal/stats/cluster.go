package stats

import (
	"fmt"
	"io"
	"text/tabwriter"

	"pegflow/internal/kickstart"
)

// ClusterStats aggregates the kickstart records belonging to one composite
// (clustered) grid job — the per-cluster accounting of what horizontal
// clustering amortized: one dispatch wait and one install shared by Tasks
// payloads instead of paid Tasks times over.
type ClusterStats struct {
	// ClusterID is the composite job ID.
	ClusterID string
	// Site and Transformation locate the composite.
	Site, Transformation string
	// Tasks is the number of distinct payload tasks that succeeded inside
	// the composite.
	Tasks int
	// Attempts counts composite-level attempts: evicted/failed bundle
	// records plus one per successful landing.
	Attempts int
	// Evictions counts bundle attempts ended by preemption.
	Evictions int
	// ExecSeconds sums the members' execution time.
	ExecSeconds float64
	// SetupSeconds is the download/install time the successful landing
	// paid — once per composite, however many tasks rode along.
	SetupSeconds float64
	// WaitSeconds is the dispatch wait of the successful landing (the
	// first member's waiting phase) — likewise paid once.
	WaitSeconds float64
}

// PerCluster aggregates records that carry a ClusterID, sorted by
// ClusterID. Logs from unclustered runs yield an empty slice.
func PerCluster(log *kickstart.Log) []ClusterStats {
	m := log.ByCluster()
	out := make([]ClusterStats, 0, len(m))
	for _, id := range sortedKeys(m) {
		ca := m[id]
		out = append(out, ClusterStats{
			ClusterID:      id,
			Site:           ca.Site,
			Transformation: ca.Transformation,
			Tasks:          ca.Tasks,
			Attempts:       ca.Attempts,
			Evictions:      ca.Evictions,
			ExecSeconds:    ca.ExecSeconds,
			SetupSeconds:   ca.SetupSeconds,
			WaitSeconds:    ca.WaitSeconds,
		})
	}
	return out
}

// WritePerCluster renders per-cluster rows as a table.
func WritePerCluster(w io.Writer, rows []ClusterStats) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "CLUSTER\tSITE\tTASKS\tATTEMPTS\tEVICTIONS\tEXEC(s)\tWAIT(s)\tINSTALL(s)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%.1f\t%.1f\t%.1f\n",
			r.ClusterID, r.Site, r.Tasks, r.Attempts, r.Evictions,
			r.ExecSeconds, r.WaitSeconds, r.SetupSeconds)
	}
	return tw.Flush()
}
