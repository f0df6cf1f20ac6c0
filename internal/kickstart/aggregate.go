package kickstart

import (
	"pegflow/internal/stats/quantile"
)

// Tally is the running count every Log keeps on Append, in both modes:
// the fixed-size state behind the workflow summary.
type Tally struct {
	// Attempts counts all appended records; Successes, Failed and Evicted
	// split them by status.
	Attempts, Successes, Failed, Evicted int
	// CumulativeTotal and CumulativeExec sum total() and Exec() over
	// successful attempts.
	CumulativeTotal, CumulativeExec float64

	// unfinished holds the grid jobs (see gridJob) that have failed and
	// not succeeded since. A later success deletes the entry, so the
	// map's size is bounded by concurrently-failing jobs plus jobs that
	// never finish — not by total attempts. It is created on the first
	// failure.
	unfinished map[string]struct{}
}

// gridJob keys the dispatch a record belongs to: the composite job for a
// clustered attempt — whose failure records carry the composite's ID and
// whose successes carry each member task's — and the job itself
// otherwise.
func gridJob(r *Record) string {
	if r.ClusterID != "" {
		return r.ClusterID
	}
	return r.JobID
}

func (t *Tally) fold(r *Record) {
	t.Attempts++
	switch r.Status {
	case StatusSuccess:
		t.Successes++
		t.CumulativeTotal += r.total()
		t.CumulativeExec += r.Exec()
		delete(t.unfinished, gridJob(r))
		return
	case StatusEvicted:
		t.Evicted++
	default:
		t.Failed++
	}
	if t.unfinished == nil {
		t.unfinished = make(map[string]struct{})
	}
	t.unfinished[gridJob(r)] = struct{}{}
}

// Retries counts the failed and evicted attempts that another attempt of
// the same grid job followed: every failure except the last of each grid
// job that has not succeeded. Under the engine's record invariants this
// is the number of re-submissions.
func (t Tally) Retries() int { return t.Failed + t.Evicted - len(t.unfinished) }

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

// foldTransformation folds a successful attempt into its
// transformation's accumulator.
func foldTransformation(m map[string]*PhaseAccum, r *Record) {
	tr := m[r.Transformation]
	if tr == nil {
		tr = &PhaseAccum{}
		m[r.Transformation] = tr
	}
	tr.fold(r)
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

// foldCluster folds a clustered record into its composite's accumulator.
func foldCluster(m map[string]*ClusterAccum, r *Record) {
	ca := m[r.ClusterID]
	if ca == nil {
		ca = &ClusterAccum{Site: r.Site, Transformation: r.Transformation}
		m[r.ClusterID] = ca
	}
	if r.Status != StatusSuccess {
		// Composite-level failure record: the whole bundle died.
		ca.Attempts++
		if r.Status == StatusEvicted {
			ca.Evictions++
		}
		return
	}
	ca.Tasks++
	ca.ExecSeconds += r.Exec()
	ca.SetupSeconds += r.Setup()
	// The successful landing's overhead is the first member's wait; later
	// members' waiting phases overlap sibling execution. The composite's
	// final site is wherever it succeeded (failover may have moved it).
	if !ca.sawFirstMember {
		ca.sawFirstMember = true
		ca.WaitSeconds = r.Waiting()
		ca.Site = r.Site
		ca.Attempts++
	}
}

// Aggregates is what an aggregating Log keeps in place of its records:
// the per-transformation and per-cluster tables (read through
// Log.ByTransformation and Log.ByCluster) and streaming sketches of
// successful attempts' exec and waiting times for percentile queries.
type Aggregates struct {
	// ExecSketch and WaitSketch stream successful attempts' exec and
	// waiting times.
	ExecSketch, WaitSketch *quantile.Sketch

	byTransformation map[string]*PhaseAccum
	byCluster        map[string]*ClusterAccum
}

func newAggregates() *Aggregates {
	return &Aggregates{
		ExecSketch:       quantile.NewSketch(),
		WaitSketch:       quantile.NewSketch(),
		byTransformation: make(map[string]*PhaseAccum),
		byCluster:        make(map[string]*ClusterAccum),
	}
}

// fold absorbs one record. It allocates only when a new grouping key
// first appears; the steady-state path is allocation-free (pinned by
// TestAllocsAggregateFold in internal/stats).
func (a *Aggregates) fold(r *Record) {
	if r.Status == StatusSuccess {
		foldTransformation(a.byTransformation, r)
		a.ExecSketch.Add(r.Exec())
		a.WaitSketch.Add(r.Waiting())
	}
	if r.ClusterID != "" {
		foldCluster(a.byCluster, r)
	}
}
