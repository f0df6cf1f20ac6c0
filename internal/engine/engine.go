package engine

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"pegflow/internal/kickstart"
	"pegflow/internal/planner"
)

// EventType classifies executor events.
type EventType int

const (
	// EventFinished reports a successful attempt.
	EventFinished EventType = iota
	// EventFailed reports an attempt that ran and failed.
	EventFailed
	// EventEvicted reports an attempt preempted by the resource owner.
	EventEvicted
)

// String returns the event type name.
func (t EventType) String() string {
	switch t {
	case EventFinished:
		return "finished"
	case EventFailed:
		return "failed"
	case EventEvicted:
		return "evicted"
	default:
		return fmt.Sprintf("event(%d)", int(t))
	}
}

// Event is one terminal executor notification for a job attempt.
type Event struct {
	// JobID names the planned job.
	JobID string
	// Pos is the job's position in its plan (planner.Job.Pos), which the
	// executor copies from the submitted job. The session finds the job by
	// it and refuses an event whose Pos does not hold JobID.
	Pos int32
	// Type is the attempt outcome.
	Type EventType
	// Time is the event time in seconds of workflow-relative time.
	Time float64
	// Record is the kickstart record of the attempt. It may be nil when
	// Members carries the attempt's records instead.
	Record *kickstart.Record
	// Members carries the per-task kickstart records of a clustered
	// (composite) job's attempt — one per payload task, in on-node
	// execution order. The engine appends them to the log after Record,
	// so per-task statistics stay comparable with unclustered runs.
	Members []*kickstart.Record
}

// Submitter is where a Session sends job attempts — the submit half of an
// Executor. One that also implements DelayedSubmitter or RecordRecycler
// gets backoff delays and, in aggregation mode, its spent records back.
type Submitter interface {
	Submit(job *planner.Job, attempt int)
}

// Executor runs planned jobs. Submit must not block; Next blocks until an
// event is available and may only be called while at least one submitted
// job is unfinished. Now reports workflow-relative time in seconds.
type Executor interface {
	Submitter
	Next() Event
	Now() float64
}

// RetryPolicy decides where a failing job's next attempt runs. It receives
// the job as last submitted, the attempt number that just failed, the site
// of the failed attempt and whether it was evicted (vs. failed). Returning
// nil retries the job unchanged (same-site retry, the DAGMan default);
// returning a job re-targets the retry — planner.Failover re-resolves the
// job onto a sibling site of a multi-site plan. The returned job must keep
// the original ID and position: it is the same DAG node, re-bound.
type RetryPolicy func(job *planner.Job, attempt int, lastSite string, evicted bool) *planner.Job

// Options tunes the meta-scheduler.
type Options struct {
	// RetryLimit is the number of additional attempts granted to a
	// failing job (Pegasus-style job retries). 0 disables retries.
	RetryLimit int
	// Retry, when set, is consulted before every retry and may re-target
	// the job (cross-site failover). Nil keeps same-site retries.
	Retry RetryPolicy
	// Backoff, when set, delays every retry by the returned number of
	// seconds (of executor time). The delay applies after Retry has
	// re-targeted the job, so failover and backoff compose. It takes
	// effect through the executor's DelayedSubmitter capability; without
	// one the delay is accounted but the retry submits immediately.
	Backoff BackoffPolicy
	// Aggregate runs the result log in aggregation mode: records are
	// folded into fixed-size accumulators and sketches instead of
	// retained, and handed back to the executor through its
	// RecordRecycler capability — the memory-flat path for million-job
	// runs. Consumers that need raw records (timelines, log export)
	// must run exact.
	Aggregate bool
}

// RecordRecycler is an optional executor capability. In aggregation
// mode the engine folds each event's records without retaining them and
// returns the spent records here so the executor can reuse their arena
// slots. Recycle is only called between Next calls — never while the
// executor is advancing — and the record must not be read after it is
// recycled.
type RecordRecycler interface {
	Recycle(r *kickstart.Record)
}

// Result summarizes one engine run.
type Result struct {
	// Success reports whether every job completed.
	Success bool
	// Makespan is the workflow wall time in seconds: the time of the
	// last event (Pegasus's "Workflow Wall Time" starts at first
	// submission, which the engine performs at time zero).
	Makespan float64
	// Log holds the kickstart record of every attempt.
	Log *kickstart.Log
	// Completed and Unfinished partition the plan's job IDs.
	Completed, Unfinished []string
	// PermanentlyFailed lists jobs that exhausted their retries.
	PermanentlyFailed []string
	// Retries counts re-submissions.
	Retries int
	// Evictions counts attempts ended by preemption.
	Evictions int
	// Failovers counts retries the retry policy re-targeted to a
	// different site (a subset of Retries).
	Failovers int
	// Backoffs counts retries that were delayed by the backoff policy,
	// and BackoffSeconds sums those delays (executor-time seconds).
	Backoffs       int
	BackoffSeconds float64

	// rescue is the sorted rescue workflow, computed once at end-of-run
	// so RescueWorkflow is a copy, not a re-sort, per call.
	rescue []string
}

// RescueWorkflow returns the IDs that a rescue DAG would contain: all jobs
// not completed, in a deterministic order.
func (r *Result) RescueWorkflow() []string {
	if r.rescue == nil && len(r.Unfinished) > 0 {
		// Hand-assembled Result (tests): fall back to sorting here.
		out := append([]string(nil), r.Unfinished...)
		sort.Strings(out)
		return out
	}
	return append([]string(nil), r.rescue...)
}

// Session is one workflow run as a step-driven state machine: Start
// submits the root jobs, every Handle folds one terminal event into the
// run and submits whatever it released, and Finish reports the outcome.
// The caller owns the event loop — Run pulls from one Executor, the
// ensemble driver demultiplexes one platform pool over many sessions —
// so a run never needs a goroutine of its own.
//
// Per-job bookkeeping is index-addressed: the plan's dense Index interns
// job IDs to contiguous integers at plan time, and every event carries its
// job's position, so dispatch runs on slices (indegree, attempts, state)
// and hashes no string.
type Session struct {
	plan     *planner.Plan
	idx      *planner.Index
	sub      Submitter
	delayed  DelayedSubmitter
	recycler RecordRecycler
	opts     Options

	indeg    []int32
	attempts []int
	// state is each job's place in the run: idle (waiting for its parents,
	// or given up on), running (an attempt in flight) or done.
	state []jobState
	// resited tracks jobs the retry policy re-targeted, so later retries
	// start from the job as last submitted (the plan itself is never
	// mutated — it may be shared or reused).
	resited []*planner.Job
	// batch holds the positions of the jobs one call readies — the roots,
	// or the children of one finished job — until they are submitted.
	batch    []int32
	inflight int

	res *Result
	// err is the first error; it ends the session (Active turns false) and
	// Finish reports it. Events still in flight are the caller's to drop.
	err error
}

// jobState is what a session knows of one job; see Session.state.
type jobState uint8

const (
	idle jobState = iota
	running
	done
)

// Start begins executing the plan, submitting every root job to sub. It
// cannot fail: a plan's index was validated when the plan was built.
func Start(plan *planner.Plan, sub Submitter, opts Options) *Session {
	s := &Session{plan: plan, sub: sub, opts: opts, res: &Result{Log: &kickstart.Log{}}}
	idx := plan.Indexed()
	s.idx = idx
	n := len(idx.Order)
	s.indeg = append([]int32(nil), idx.Indegree...)
	s.attempts = make([]int, n)
	s.state = make([]jobState, n)
	if opts.Aggregate {
		s.res.Log.SetAggregate()
		s.recycler, _ = sub.(RecordRecycler)
	}
	s.delayed, _ = sub.(DelayedSubmitter)
	// One event can release a whole level at once (a split finishing
	// readies every chunk), so the batch is sized for the widest level up
	// front instead of grown to it.
	widest := 0
	for _, level := range idx.Levels {
		if len(level) > widest {
			widest = len(level)
		}
	}
	s.batch = make([]int32, 0, widest)
	for i := 0; i < n; i++ {
		if s.indeg[i] == 0 {
			s.batch = append(s.batch, int32(i))
		}
	}
	s.submitBatch()
	return s
}

// Active reports whether the session still expects events: attempts are
// in flight and no error has ended the run.
func (s *Session) Active() bool { return s.err == nil && s.inflight > 0 }

// submitBatch submits the batch, highest priority first and ties in the
// order the jobs were readied, and empties it.
func (s *Session) submitBatch() {
	slices.SortStableFunc(s.batch, func(a, b int32) int {
		return cmp.Compare(s.plan.JobAt(b).Priority, s.plan.JobAt(a).Priority)
	})
	for _, pos := range s.batch {
		s.submit(s.plan.JobAt(pos), pos, 0)
	}
	s.batch = s.batch[:0]
}

// submit sends the next attempt of the job at position pos, delay seconds
// of executor time from now when the executor can wait out a backoff.
func (s *Session) submit(job *planner.Job, pos int32, delay float64) {
	s.attempts[pos]++
	if delay > 0 && s.delayed != nil {
		s.delayed.SubmitAfter(job, s.attempts[pos], delay)
	} else {
		s.sub.Submit(job, s.attempts[pos])
	}
	s.state[pos] = running
	s.inflight++
}

// Handle folds the terminal event of one of the session's in-flight
// attempts into the run: it logs the records and submits the children of
// a finished job that it readies, or the retry of a failed one
// (consulting the retry and backoff policies). It may only be called
// while the session is Active.
func (s *Session) Handle(ev Event) { s.err = s.handle(ev) }

func (s *Session) handle(ev Event) error {
	res, opts := s.res, &s.opts
	pos := ev.Pos
	if pos < 0 || int(pos) >= len(s.state) || s.plan.JobAt(pos).ID != ev.JobID {
		return fmt.Errorf("engine: executor reported unknown job %q", ev.JobID)
	}
	if s.state[pos] != running {
		return fmt.Errorf("engine: executor reported job %q, which has no attempt in flight", ev.JobID)
	}
	s.state[pos] = idle
	s.inflight--
	if ev.Record != nil {
		if err := res.Log.Append(ev.Record); err != nil {
			return fmt.Errorf("engine: job %q: %w", ev.JobID, err)
		}
	}
	for _, r := range ev.Members {
		if err := res.Log.Append(r); err != nil {
			return fmt.Errorf("engine: job %q member %q: %w", ev.JobID, r.JobID, err)
		}
	}
	if ev.Time > res.Makespan {
		res.Makespan = ev.Time
	}
	switch ev.Type {
	case EventFinished:
		s.state[pos] = done
		for _, child := range s.idx.Children[pos] {
			s.indeg[child]--
			if s.indeg[child] == 0 {
				s.batch = append(s.batch, child)
			}
		}
		s.submitBatch()
	case EventFailed, EventEvicted:
		if ev.Type == EventEvicted {
			res.Evictions++
		}
		if s.attempts[pos] <= opts.RetryLimit {
			// Resubmit; the attempt counter increments on submit.
			res.Retries++
			job := s.plan.JobAt(pos)
			if s.resited != nil && s.resited[pos] != nil {
				job = s.resited[pos]
			}
			if opts.Retry != nil {
				lastSite := job.Site
				if ev.Record != nil && ev.Record.Site != "" {
					lastSite = ev.Record.Site
				}
				if nj := opts.Retry(job, s.attempts[pos], lastSite, ev.Type == EventEvicted); nj != nil {
					if nj.ID != job.ID {
						return fmt.Errorf("engine: retry policy renamed job %q to %q", job.ID, nj.ID)
					}
					if nj.Pos() != pos {
						return fmt.Errorf("engine: retry policy moved job %q from position %d to %d", job.ID, pos, nj.Pos())
					}
					if nj.Site != job.Site {
						res.Failovers++
					}
					if s.resited == nil {
						s.resited = make([]*planner.Job, len(s.state))
					}
					s.resited[pos] = nj
					job = nj
				}
			}
			var delay float64
			if opts.Backoff != nil {
				// Drawn here, in event order, so the jitter sequence is
				// deterministic for a given seed regardless of executor.
				if delay = opts.Backoff(s.attempts[pos]); delay > 0 {
					res.Backoffs++
					res.BackoffSeconds += delay
				}
			}
			s.submit(job, pos, delay)
		} else {
			res.PermanentlyFailed = append(res.PermanentlyFailed, ev.JobID)
		}
	default:
		return fmt.Errorf("engine: unknown event type %v for job %q", ev.Type, ev.JobID)
	}
	if s.recycler != nil {
		// The records were folded into the aggregating log above and
		// the retry branch has taken what it needs (ev.Record.Site);
		// hand the slots back to the executor's arena.
		if ev.Record != nil {
			s.recycler.Recycle(ev.Record)
		}
		for _, r := range ev.Members {
			s.recycler.Recycle(r)
		}
	}
	return nil
}

// Finish returns the run's outcome: the first error, or the result with
// the plan's jobs partitioned into completed and unfinished. Call it once,
// after Active has turned false.
func (s *Session) Finish() (*Result, error) {
	if s.err != nil {
		return nil, s.err
	}
	res := s.res
	completed := 0
	for _, st := range s.state {
		if st == done {
			completed++
		}
	}
	res.Completed = make([]string, 0, completed)
	res.Unfinished = make([]string, 0, len(s.state)-completed)
	for i, id := range s.idx.Order {
		if s.state[i] == done {
			res.Completed = append(res.Completed, id)
		} else {
			res.Unfinished = append(res.Unfinished, id)
		}
	}
	res.Success = len(res.Unfinished) == 0
	sort.Strings(res.PermanentlyFailed)
	res.rescue = append([]string(nil), res.Unfinished...)
	sort.Strings(res.rescue)
	return res, nil
}

// Run executes the plan on the executor: a session driven by the
// executor's own event stream.
func Run(plan *planner.Plan, ex Executor, opts Options) (*Result, error) {
	s := Start(plan, ex, opts)
	for s.Active() {
		s.Handle(ex.Next())
	}
	return s.Finish()
}
