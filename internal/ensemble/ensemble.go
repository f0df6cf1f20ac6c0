package ensemble

import (
	"fmt"

	"pegflow/internal/dax"
	"pegflow/internal/engine"
	"pegflow/internal/fifo"
	"pegflow/internal/kickstart"
	"pegflow/internal/planner"
	"pegflow/internal/pool"
	"pegflow/internal/sim/platform"
	"pegflow/internal/stats"
)

// Spec is one ensemble member: a planned workflow plus its scheduling
// parameters.
type Spec struct {
	// Name labels the workflow in reports. Names must be distinct.
	Name string
	// Plan is the executable (possibly multi-site) workflow.
	Plan *planner.Plan
	// Priority orders held jobs across members when the global throttle
	// is saturated; higher releases first.
	Priority int
	// RetryLimit is the per-job retry budget (engine.Options.RetryLimit).
	RetryLimit int
	// Retry, when set, re-targets this member's retries (cross-site
	// failover). Each member needs its own policy instance: the policy
	// carries adaptive per-run state.
	Retry engine.RetryPolicy
	// Backoff, when set, delays this member's retries (virtual-time
	// exponential backoff). Each member needs its own policy instance:
	// the jitter stream is stateful.
	Backoff engine.BackoffPolicy
}

// Options tunes the ensemble driver.
type Options struct {
	// MaxInFlight caps jobs submitted to the platform pool across all
	// members (0 = unlimited) — the ensemble-manager counterpart of
	// DAGMan's maxjobs.
	MaxInFlight int
	// Aggregate runs every member engine in aggregation mode
	// (engine.Options.Aggregate): member logs fold into fixed-size
	// accumulators and sketches instead of retaining records, and spent
	// records are recycled into the pool's arenas — the memory-flat path
	// for large ensembles.
	Aggregate bool
}

// WorkflowResult pairs a member with its engine outcome.
type WorkflowResult struct {
	// Name and Priority echo the spec.
	Name     string
	Priority int
	// Result is the engine outcome. Makespans are in ensemble virtual
	// time; since every member is admitted at time zero, a member's
	// makespan is its completion time.
	Result *engine.Result
}

// SiteUsage summarizes one platform of the pool after the run.
type SiteUsage struct {
	// Site is the platform name.
	Site string
	// Slots is the configured slot count.
	Slots int
	// MaxBusySlots is the high-water mark of concurrently busy slots.
	MaxBusySlots int
	// BusySlotSeconds and CapacitySlotSeconds integrate occupancy and
	// capacity over virtual time.
	BusySlotSeconds, CapacitySlotSeconds float64
	// Outages counts fault-imposed full outages of the site, and
	// DowntimeSeconds integrates them over virtual time (an outage still
	// open at end of run is counted up to the last event).
	Outages         int
	DowntimeSeconds float64
}

// Result is the outcome of one ensemble run.
type Result struct {
	// Makespan is the ensemble wall time: the time of the last event.
	Makespan float64
	// Workflows lists member results in admission order.
	Workflows []WorkflowResult
	// Sites lists per-site usage, sorted by site name.
	Sites []SiteUsage
}

// Report renders the result as a stats.EnsembleReport under the given
// policy label.
func (r *Result) Report(policy string) *stats.EnsembleReport {
	rep := &stats.EnsembleReport{Policy: policy, Makespan: r.Makespan}
	for _, s := range r.Sites {
		util := 0.0
		if s.CapacitySlotSeconds > 0 {
			util = s.BusySlotSeconds / s.CapacitySlotSeconds
		}
		rep.Sites = append(rep.Sites, stats.EnsembleSite{
			Site:            s.Site,
			Slots:           s.Slots,
			MaxBusySlots:    s.MaxBusySlots,
			BusySlotSeconds: s.BusySlotSeconds,
			Utilization:     util,
			Outages:         s.Outages,
			DowntimeSeconds: s.DowntimeSeconds,
		})
		rep.TotalOutages += s.Outages
	}
	var sum float64
	for _, w := range r.Workflows {
		res := w.Result
		rep.Workflows = append(rep.Workflows, stats.EnsembleWorkflow{
			Name:      w.Name,
			Priority:  w.Priority,
			Success:   res.Success,
			Makespan:  res.Makespan,
			Jobs:      len(res.Completed) + len(res.Unfinished),
			Attempts:  res.Log.Len(),
			Retries:   res.Retries,
			Evictions: res.Evictions,
			Failovers: res.Failovers,
			Backoffs:  res.Backoffs,
		})
		sum += res.Makespan
		rep.TotalRetries += res.Retries
		rep.TotalEvictions += res.Evictions
		rep.TotalFailovers += res.Failovers
		rep.TotalBackoffs += res.Backoffs
	}
	if len(r.Workflows) > 0 {
		rep.MeanWorkflowMakespan = sum / float64(len(r.Workflows))
	}
	return rep
}

// WorkflowSource is an unplanned ensemble member for PlanAll.
type WorkflowSource struct {
	// Name labels the workflow.
	Name string
	// Abstract is the workflow to plan.
	Abstract *dax.Workflow
	// Priority and RetryLimit carry over to the Spec.
	Priority, RetryLimit int
}

// PlanOptions configures PlanAll.
type PlanOptions struct {
	// Sites are the target sites for every member.
	Sites []string
	// Policy is the site-selection policy name (planner.PolicyNames).
	Policy string
	// AddStageIn synthesizes per-site stage-in jobs for external inputs
	// (requires replicas to be registered for them).
	AddStageIn bool
	// Cluster, when enabled, runs the post-planning clustering pass on
	// every member plan (planner.Cluster).
	Cluster planner.ClusterOptions
	// Failover gives every member a cross-site retry policy over the
	// target sites (planner.Failover), so jobs evicted on one pool site
	// are re-resolved and resubmitted to a sibling.
	Failover bool
	// Workers bounds planning parallelism (<= 0 means all CPUs).
	Workers int
}

// ResolvedSource is an ensemble member whose seed-independent planning is
// already done: a planner.Resolved master — typically shared by many
// members and cells — plus this member's runtime estimates.
type ResolvedSource struct {
	// Name labels the workflow.
	Name string
	// Master is the resolved workflow shape; PlanMember only reads it.
	Master *planner.Resolved
	// Pos and Seconds are the member's runtime overrides, as
	// planner.Resolved.Plan takes them.
	Pos     []int32
	Seconds []float64
	// Priority and RetryLimit carry over to the Spec.
	Priority, RetryLimit int
}

// PlanAll maps every source onto the target sites under a fresh instance
// of the named policy, fanning the independent planning runs across the
// shared worker pool. Results are identical for any worker count: each
// member gets its own policy state, so plans do not depend on planning
// order.
func PlanAll(srcs []WorkflowSource, cats planner.Catalogs, opts PlanOptions) ([]Spec, error) {
	specs := make([]Spec, len(srcs))
	err := pool.ForEach(opts.Workers, len(srcs), func(i int) error {
		r, err := planner.Resolve(srcs[i].Abstract, cats, planner.MultiOptions{
			Sites:      opts.Sites,
			AddStageIn: opts.AddStageIn,
		})
		if err != nil {
			return fmt.Errorf("ensemble: planning %q: %w", srcs[i].Name, err)
		}
		specs[i], err = PlanMember(ResolvedSource{
			Name:       srcs[i].Name,
			Master:     r,
			Priority:   srcs[i].Priority,
			RetryLimit: srcs[i].RetryLimit,
		}, cats, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	return specs, nil
}

// PlanMember is PlanAll's step for one member that arrives resolved: it
// runs only the per-member work — placement under a fresh policy,
// clustering, failover — so nothing it does is proportional to building a
// graph once the master's shapes are materialized. opts.Sites must be the
// site list the master was resolved with; opts.AddStageIn is the master's
// already, and opts.Workers is the caller's business.
func PlanMember(src ResolvedSource, cats planner.Catalogs, opts PlanOptions) (Spec, error) {
	pol, err := planner.NewPolicy(opts.Policy)
	if err != nil {
		return Spec{}, err
	}
	p, err := src.Master.Plan(pol, src.Pos, src.Seconds)
	if err != nil {
		return Spec{}, fmt.Errorf("ensemble: planning %q: %w", src.Name, err)
	}
	// Disabled options leave the plan as it is; invalid ones are refused.
	p, err = planner.Cluster(p, opts.Cluster)
	if err != nil {
		return Spec{}, fmt.Errorf("ensemble: clustering %q: %w", src.Name, err)
	}
	spec := Spec{
		Name:       src.Name,
		Plan:       p,
		Priority:   src.Priority,
		RetryLimit: src.RetryLimit,
	}
	if opts.Failover {
		fo, err := planner.NewFailover(cats, opts.Sites)
		if err != nil {
			return Spec{}, fmt.Errorf("ensemble: failover for %q: %w", src.Name, err)
		}
		spec.Retry = fo.Resite
	}
	return spec, nil
}

// tagged is a platform event attributed to a member workflow.
type tagged struct {
	wf int
	ev engine.Event
}

// held is a submission waiting for global in-flight capacity, or for its
// backoff delay to run out.
type held struct {
	wf      int
	job     *planner.Job
	attempt int
	prio    int
	seq     int
}

// before orders held submissions by member priority (higher first),
// breaking ties by submission sequence (FIFO). seq is unique, so the order
// is total.
func (a held) before(b held) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.seq < b.seq
}

// holdQueue is a binary heap of held submissions by value —
// container/heap would box every item through `any`. The order being
// total, what pops next does not depend on the heap's shape.
type holdQueue []held

func (q *holdQueue) push(h held) {
	*q = append(*q, h)
	s := *q
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.before(s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = h
}

func (q *holdQueue) pop() held {
	s := *q
	top := s[0]
	n := len(s) - 1
	h := s[n] // re-placed from the root down
	s[n] = held{}
	s = s[:n]
	*q = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s[r].before(s[c]) {
			c = r
		}
		if !s[c].before(h) {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = h
	return top
}

// driver owns all shared ensemble state: the platform pool, the tagged
// event queue the members' emit callbacks fill, and the global hold queue.
// It runs entirely on the goroutine that called Run.
type driver struct {
	pool  *platform.MultiExecutor
	specs []Spec
	opts  Options

	queue    fifo.Queue[tagged]
	hold     holdQueue
	inflight int
	seq      int
	// emits[w] delivers a platform event to member w's side of the queue:
	// one closure per member, not one per submission.
	emits []func(engine.Event)
	// delayed holds the re-submissions waiting out a backoff delay, indexed
	// by the argument of their pool event; free slots are recycled through
	// freeDelayed.
	delayed     []held
	freeDelayed []int32
}

func newDriver(p *platform.MultiExecutor, specs []Spec, opts Options) *driver {
	d := &driver{pool: p, specs: specs, opts: opts, emits: make([]func(engine.Event), len(specs))}
	for w := range specs {
		w := w
		d.emits[w] = func(ev engine.Event) { d.queue.Push(tagged{wf: w, ev: ev}) }
	}
	return d
}

// member is one workflow's engine.Submitter: submissions enter the
// driver's hold queue under the member's index.
type member struct {
	d  *driver
	wf int
}

func (m *member) Submit(job *planner.Job, attempt int) { m.d.submit(m.wf, job, attempt) }

// SubmitAfter implements engine.DelayedSubmitter: the re-submission is
// scheduled on the pool's virtual clock and re-enters the driver's hold
// queue when it fires, so backoff delays and the global in-flight
// throttle compose.
func (m *member) SubmitAfter(job *planner.Job, attempt int, delay float64) {
	if delay <= 0 {
		m.Submit(job, attempt)
		return
	}
	d := m.d
	var slot int32
	if n := len(d.freeDelayed); n > 0 {
		slot = d.freeDelayed[n-1]
		d.freeDelayed = d.freeDelayed[:n-1]
	} else {
		d.delayed = append(d.delayed, held{})
		slot = int32(len(d.delayed) - 1)
	}
	d.delayed[slot] = held{wf: m.wf, job: job, attempt: attempt}
	d.pool.AfterOp(delay, d, 0, slot)
}

// HandleEvent implements des.Handler for the driver's one kind of event: a
// backoff delay ran out, and arg names the delayed re-submission.
func (d *driver) HandleEvent(_, arg int32) {
	h := d.delayed[arg]
	d.delayed[arg] = held{}
	d.freeDelayed = append(d.freeDelayed, arg)
	d.submit(h.wf, h.job, h.attempt)
}

// Recycle implements engine.RecordRecycler by routing the spent record
// back to the pool site that allocated it.
func (m *member) Recycle(r *kickstart.Record) { m.d.pool.Recycle(r) }

// submit holds the job and releases as much held work as global capacity
// allows.
func (d *driver) submit(wf int, job *planner.Job, attempt int) {
	d.hold.push(held{wf: wf, job: job, attempt: attempt, prio: d.specs[wf].Priority, seq: d.seq})
	d.seq++
	d.release()
}

// release submits held jobs to the platform pool while the global
// in-flight cap permits, highest member priority first.
func (d *driver) release() {
	for len(d.hold) > 0 && (d.opts.MaxInFlight == 0 || d.inflight < d.opts.MaxInFlight) {
		h := d.hold.pop()
		d.pool.SubmitTagged(h.job, h.attempt, d.emits[h.wf])
		d.inflight++
	}
}

// Run executes the ensemble on the shared platform pool. Members are
// admitted in spec order at virtual time zero.
func Run(p *platform.MultiExecutor, specs []Spec, opts Options) (*Result, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("ensemble: no workflows")
	}
	names := make(map[string]bool, len(specs))
	for _, s := range specs {
		if s.Name == "" {
			return nil, fmt.Errorf("ensemble: workflow with empty name")
		}
		if names[s.Name] {
			return nil, fmt.Errorf("ensemble: duplicate workflow name %q", s.Name)
		}
		names[s.Name] = true
		if err := p.CheckPlan(s.Plan); err != nil {
			return nil, fmt.Errorf("ensemble: workflow %q: %w", s.Name, err)
		}
	}
	if opts.MaxInFlight < 0 {
		return nil, fmt.Errorf("ensemble: negative MaxInFlight %d", opts.MaxInFlight)
	}

	d := newDriver(p, specs, opts)
	jobs := 0
	for _, s := range specs {
		jobs += s.Plan.Len()
	}
	p.Reserve(jobs)

	// Admit members in spec order: starting a session submits its root
	// jobs, so earlier members reach the hold queue (and the submit hosts)
	// first.
	sessions := make([]*engine.Session, len(specs))
	active := 0
	for w := range specs {
		sessions[w] = engine.Start(specs[w].Plan, &member{d: d, wf: w}, engine.Options{
			RetryLimit: specs[w].RetryLimit,
			Retry:      specs[w].Retry,
			Backoff:    specs[w].Backoff,
			Aggregate:  opts.Aggregate,
		})
		if sessions[w].Active() {
			active++
		}
	}

	for active > 0 {
		if d.queue.Len() == 0 {
			if !d.pool.Step() {
				return nil, fmt.Errorf("ensemble: deadlock: %d workflows active with no platform events", active)
			}
			continue
		}
		te := d.queue.Pop()
		d.inflight--
		d.release()
		s := sessions[te.wf]
		if !s.Active() {
			// The member's run already ended in an error; its straggler
			// events are dropped.
			continue
		}
		s.Handle(te.ev)
		if !s.Active() {
			active--
		}
	}

	out := &Result{Makespan: p.Now()}
	for w, s := range specs {
		res, err := sessions[w].Finish()
		if err != nil {
			return nil, fmt.Errorf("ensemble: workflow %q: %w", s.Name, err)
		}
		out.Workflows = append(out.Workflows, WorkflowResult{
			Name:     s.Name,
			Priority: s.Priority,
			Result:   res,
		})
	}
	for _, name := range p.SiteNames() {
		site := p.Site(name)
		out.Sites = append(out.Sites, SiteUsage{
			Site:                name,
			Slots:               site.Config().Slots,
			MaxBusySlots:        site.MaxBusySlots(),
			BusySlotSeconds:     site.BusySlotSeconds(),
			CapacitySlotSeconds: site.CapacitySlotSeconds(),
			Outages:             site.Outages(),
			DowntimeSeconds:     site.DowntimeSeconds(),
		})
	}
	return out, nil
}
