package kickstart

import (
	"sort"

	"pegflow/internal/stats/quantile"
)

// PhaseAccum accumulates the phase timings of successful attempts for
// one grouping key (a transformation or a site). Means are derived by
// the stats package as Sum*/Count.
type PhaseAccum struct {
	// Count is the number of successful attempts folded in.
	Count int
	// SumExec, SumWait and SumSetup total the exec, waiting and
	// download/install phases in seconds.
	SumExec, SumWait, SumSetup float64
	// MaxExec and MaxWait expose stragglers.
	MaxExec, MaxWait float64
}

func (a *PhaseAccum) fold(r *Record) {
	a.Count++
	e, w := r.Exec(), r.Waiting()
	a.SumExec += e
	a.SumWait += w
	a.SumSetup += r.Setup()
	if e > a.MaxExec {
		a.MaxExec = e
	}
	if w > a.MaxWait {
		a.MaxWait = w
	}
}

// ClusterAccum accumulates the records of one composite (clustered)
// grid job, mirroring the fields of stats.ClusterStats.
type ClusterAccum struct {
	// Site and Transformation locate the composite; Site is where it
	// finally succeeded.
	Site, Transformation string
	// Tasks counts distinct payload tasks that succeeded inside the
	// composite.
	Tasks int
	// Attempts counts composite-level attempts: failed bundle records
	// plus one per successful landing.
	Attempts int
	// Evictions counts bundle attempts ended by preemption.
	Evictions int
	// ExecSeconds sums the members' execution time; SetupSeconds and
	// WaitSeconds are the successful landing's one-off overheads.
	ExecSeconds, SetupSeconds, WaitSeconds float64

	sawFirstMember bool
}

// Aggregates is the folded view of a Log in aggregation mode: the
// fixed-size state every stats consumer (Summarize, PerTransformation,
// PerCluster, percentile columns) needs, with streaming sketches in place of
// retained per-attempt values.
type Aggregates struct {
	// Attempts counts all folded records; Successes, Failed and Evicted
	// split them by status.
	Attempts, Successes, Failed, Evicted int
	// CumulativeTotal and CumulativeExec sum Total() and Exec() over
	// successful attempts.
	CumulativeTotal, CumulativeExec float64
	// ByTransformation accumulates successful-attempt phase timings keyed
	// by transformation.
	ByTransformation map[string]*PhaseAccum
	// ByCluster accumulates composite-job records keyed by ClusterID.
	ByCluster map[string]*ClusterAccum
	// ExecSketch and WaitSketch stream successful attempts' exec and
	// waiting times for percentile queries.
	ExecSketch, WaitSketch *quantile.Sketch

	// unfinished tracks jobs that have failed and not (yet) succeeded.
	// Entries are deleted when the job later succeeds, so the map's
	// size is bounded by concurrently-failing jobs plus jobs that never
	// finish — not by total attempts.
	unfinished map[string]struct{}
}

func newAggregates() *Aggregates {
	return &Aggregates{
		ByTransformation: make(map[string]*PhaseAccum),
		ByCluster:        make(map[string]*ClusterAccum),
		ExecSketch:       quantile.NewSketch(),
		WaitSketch:       quantile.NewSketch(),
		unfinished:       make(map[string]struct{}),
	}
}

// fold absorbs one record. It allocates only when a new grouping key
// first appears; the steady-state path is allocation-free (pinned by
// TestAggregateFoldAllocs in internal/stats).
func (a *Aggregates) fold(r *Record) {
	a.Attempts++
	switch r.Status {
	case StatusSuccess:
		a.Successes++
		a.CumulativeTotal += r.Total()
		a.CumulativeExec += r.Exec()
		delete(a.unfinished, r.JobID)
		tr := a.ByTransformation[r.Transformation]
		if tr == nil {
			tr = &PhaseAccum{}
			a.ByTransformation[r.Transformation] = tr
		}
		tr.fold(r)
		a.ExecSketch.Add(r.Exec())
		a.WaitSketch.Add(r.Waiting())
	case StatusEvicted:
		a.Evicted++
		a.unfinished[r.JobID] = struct{}{}
	default:
		a.Failed++
		a.unfinished[r.JobID] = struct{}{}
	}
	if r.ClusterID != "" {
		a.foldCluster(r)
	}
}

// foldCluster mirrors stats.PerCluster's per-record accounting.
func (a *Aggregates) foldCluster(r *Record) {
	ca := a.ByCluster[r.ClusterID]
	if ca == nil {
		ca = &ClusterAccum{Site: r.Site, Transformation: r.Transformation}
		a.ByCluster[r.ClusterID] = ca
	}
	if r.Status != StatusSuccess {
		ca.Attempts++
		if r.Status == StatusEvicted {
			ca.Evictions++
		}
		return
	}
	ca.Tasks++
	ca.ExecSeconds += r.Exec()
	ca.SetupSeconds += r.Setup()
	if !ca.sawFirstMember {
		ca.sawFirstMember = true
		ca.WaitSeconds = r.Waiting()
		ca.Site = r.Site
		ca.Attempts++
	}
}

// SucceededJobs reports the number of distinct jobs that succeeded.
// Under the engine invariant (one success per job) this is the success
// count.
func (a *Aggregates) SucceededJobs() int { return a.Successes }

// UnfinishedJobs reports the number of distinct jobs that failed at
// least once and never succeeded.
func (a *Aggregates) UnfinishedJobs() int { return len(a.unfinished) }

// ClusterIDs returns the composite-job IDs seen, sorted — the
// deterministic iteration order for ByCluster.
func (a *Aggregates) ClusterIDs() []string {
	ids := make([]string, 0, len(a.ByCluster))
	for id := range a.ByCluster {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
