package platform

import (
	"fmt"
	"slices"
	"strings"

	"pegflow/internal/engine"
	"pegflow/internal/fault"
	"pegflow/internal/fifo"
	"pegflow/internal/kickstart"
	"pegflow/internal/planner"
	"pegflow/internal/sim/des"
	"pegflow/internal/spare"
)

// Executor runs planned jobs in virtual time on a pool of one or more
// simulated platforms sharing one clock. It implements engine.Executor:
// each submitted job is routed to the site named by its Site, and events
// from every site interleave in global virtual-time order — the paper's
// scenario of one WMS feeding a campus cluster and an opportunistic grid at
// the same time. A single-platform run is a pool of one.
//
// Every terminal event leaves the pool by one route, a FIFO of (member,
// event) pairs in firing order. An attempt carries the member tag it was
// submitted under and Pull hands it back with the event, so an ensemble
// driver attributes events to its member workflows; Submit and SubmitAfter
// use tag 0, and Next drops it.
//
// An Executor runs on storage that a finished run can hand to the next one:
// Release gives it back and NewMultiExecutor takes it (see storage).
type Executor struct {
	*storage // nil once released
}

// storage is what an Executor runs on: the clock, the sites (each with its
// slot pool, attempt slab, record arena and node-name table) and the event
// queue. Release puts it in spares and NewMultiExecutor takes it from there;
// reset re-initializes it in place, and is how fresh storage is initialized
// too, so a recycled executor and a fresh one are one code path.
//
// Copying storage by value would alias the clock and the queue; go vet
// flags it.
type storage struct {
	sim    des.Simulation
	sites  []*site // in configuration order
	events fifo.Queue[delivery]
}

// spares holds the storage of released executors, for any goroutine's next
// NewMultiExecutor; it drops what it holds across two garbage collections
// (see package spare).
var spares spare.List[storage]

// MultiExecutor is Executor.
//
// Deprecated: the alias stays only so that callers which still name the
// multi-site pool's old type compile.
type MultiExecutor = Executor

// delivery is a terminal event and the member tag of its attempt.
type delivery struct {
	member int32
	ev     engine.Event
}

// SiteUsage summarizes one site of the pool.
type SiteUsage struct {
	// Site is the platform name and Slots its configured slot count;
	// MaxBusySlots is the high-water mark of concurrently busy slots.
	Site                string
	Slots, MaxBusySlots int
	// BusySlotSeconds and CapacitySlotSeconds integrate occupancy and
	// capacity over virtual time.
	BusySlotSeconds, CapacitySlotSeconds float64
	// Outages counts fault-imposed full outages of the site, and
	// DowntimeSeconds integrates them over virtual time (an outage still
	// open is counted up to the last event).
	Outages         int
	DowntimeSeconds float64
}

// NewExecutor builds a pool of one platform.
func NewExecutor(cfg Config) (*Executor, error) {
	return NewMultiExecutor([]Config{cfg})
}

// NewMultiExecutor builds a pool of the given platforms on one clock. Names
// must be distinct. The pool runs on the storage of a released executor
// when there is one (see Release), else on fresh storage; the two behave
// identically.
func NewMultiExecutor(cfgs []Config) (*Executor, error) {
	st := spares.Get()
	if st == nil {
		st = new(storage)
	}
	e, err := newExecutor(st, cfgs)
	if err != nil {
		spares.Put(st)
	}
	return e, err
}

// newExecutor builds the pool on st, fresh or released. It checks the
// configurations before it touches st, so a refused pool leaves st as it
// was.
func newExecutor(st *storage, cfgs []Config) (*Executor, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("platform: multi-executor with no platforms")
	}
	for i, cfg := range cfgs {
		for _, prev := range cfgs[:i] {
			if prev.Name == cfg.Name {
				return nil, fmt.Errorf("platform: duplicate platform %q in pool", cfg.Name)
			}
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
	}
	st.reset(cfgs)
	return &Executor{storage: st}, nil
}

// reset re-initializes st as a pool of the given platforms at virtual time
// zero, keeping its storage: the sites it holds are reused in order. cfgs
// must be valid and distinct.
func (st *storage) reset(cfgs []Config) {
	st.sim.Reset()
	st.events.Reset()
	if n := len(cfgs); n > cap(st.sites) {
		st.sites = append(st.sites[:cap(st.sites)], make([]*site, n-cap(st.sites))...)
	}
	st.sites = st.sites[:len(cfgs)]
	for i, cfg := range cfgs {
		if st.sites[i] == nil {
			st.sites[i] = new(site)
		}
		st.sites[i].reset(st, cfg)
	}
}

// Release hands the executor's storage — clock, sites, attempt slabs,
// record arenas and node-name tables — to a later NewMultiExecutor. The
// caller gives up the executor and every record it handed out: the next
// pool reissues the records' memory. The executor is unusable afterwards:
// any use panics, a second Release included.
func (e *Executor) Release() {
	if e.storage == nil {
		panic("platform: Release of a released executor")
	}
	spares.Put(e.storage)
	e.storage = nil
}

// Now returns the pool's virtual time in seconds.
func (e *Executor) Now() float64 { return e.sim.Now().Seconds() }

// lookup returns the named site, or nil.
func (e *Executor) lookup(name string) *site {
	for _, s := range e.sites {
		if s.cfg.Name == name {
			return s
		}
	}
	return nil
}

// names lists the sites in configuration order, for error messages.
func (e *Executor) names() []string {
	out := make([]string, len(e.sites))
	for i, s := range e.sites {
		out[i] = s.cfg.Name
	}
	return out
}

// route returns the site named by the job's Site. It panics on an unknown
// site (plans must pass CheckPlan first) in unroutable, which is not
// inlined, so route holds no allocation site.
func (e *Executor) route(job *planner.Job) *site {
	s := e.lookup(job.Site)
	if s == nil {
		e.unroutable(job)
	}
	return s
}

//go:noinline
func (e *Executor) unroutable(job *planner.Job) {
	panic(fmt.Sprintf("platform: job %q targets site %q, not in pool %v", job.ID, job.Site, e.names()))
}

// Submit schedules the job attempt on its site under member tag 0.
func (e *Executor) Submit(job *planner.Job, attempt int) { e.SubmitFor(0, job, attempt) }

// SubmitFor schedules the job attempt on its site under the given member
// tag, which Pull reports with the attempt's terminal event.
func (e *Executor) SubmitFor(member int32, job *planner.Job, attempt int) {
	e.route(job).submit(member, job, attempt)
}

// SubmitAfter schedules the job attempt on its site under member tag 0
// after a virtual delay — the engine's backoff hook. A non-positive delay
// submits immediately.
func (e *Executor) SubmitAfter(job *planner.Job, attempt int, delay float64) {
	s := e.route(job)
	if delay <= 0 {
		s.submit(0, job, attempt)
		return
	}
	e.sim.AfterOp(delay, s, opSubmit, s.newAttempt(job, attempt, 0))
}

// AfterOp schedules h.HandleEvent(op, arg) on the pool's clock. Ensemble
// drivers use it to delay re-submissions (backoff) in virtual time; the
// event fires inside the pool's event loop like any other.
func (e *Executor) AfterOp(delay float64, h des.Handler, op, arg int32) {
	e.sim.AfterOp(delay, h, op, arg)
}

// Reserve sizes the pool for plans totalling the given number of jobs: the
// kernel's event arena and heap for all of them, and each site's slot pool,
// attempt slab and node-name table for an even share (a site that gets
// more grows by doubling). A sizing hint: its absence changes bytes allocated, never
// results.
func (e *Executor) Reserve(jobs int) {
	e.sim.Reserve(jobs)
	for _, s := range e.sites {
		s.reserve(jobs / len(e.sites))
	}
}

// InstallFaults arms each faulted site with its compiled timeline. Must be
// called before any submissions, at virtual time zero; a nil script is a
// no-op. Faulting a site the pool does not have is an error — fault scripts
// are validated against the same site list as plans.
func (e *Executor) InstallFaults(script *fault.Script) error {
	if script == nil {
		return nil
	}
	for _, name := range script.Sites() {
		s := e.lookup(name)
		if s == nil {
			return fmt.Errorf("platform: fault script targets site %q, not in pool %v", name, e.names())
		}
		s.installFaults(script.Site(name))
	}
	return nil
}

// Pull advances virtual time until a terminal event is queued and returns it
// with the member tag of its attempt. ok is false if the kernel ran dry
// first: nothing is left to fire, so no event can ever arrive.
func (e *Executor) Pull() (member int32, ev engine.Event, ok bool) {
	for e.events.Len() == 0 {
		if !e.sim.Step() {
			return 0, engine.Event{}, false
		}
	}
	d := e.events.Pop()
	return d.member, d.ev, true
}

// Next is Pull for a driver without members. It panics on a dry kernel:
// with jobs outstanding, that is a deadlock.
func (e *Executor) Next() engine.Event {
	_, ev, ok := e.Pull()
	if !ok {
		panic("platform: executor deadlock: no pending events but jobs outstanding")
	}
	return ev
}

// Recycle returns a spent record's arena slot to the site that allocated it
// — the engine's aggregation mode calls this after folding each record.
// Records carry their allocating site in Site (sites never re-site a
// record); the caller must not touch the record afterwards.
func (e *Executor) Recycle(r *kickstart.Record) {
	if s := e.lookup(r.Site); s != nil {
		s.recs.recycle(r)
	}
}

// CheckPlan verifies that every job of the plan targets a pool member.
func (e *Executor) CheckPlan(plan *planner.Plan) error {
	for i, n := int32(0), int32(plan.Len()); i < n; i++ {
		j := plan.JobAt(i)
		if e.lookup(j.Site) == nil {
			return fmt.Errorf("platform: plan job %q targets site %q, not in pool %v",
				j.ID, j.Site, e.names())
		}
	}
	return nil
}

// Usage reports every site's usage so far, sorted by site name.
func (e *Executor) Usage() []SiteUsage {
	out := make([]SiteUsage, len(e.sites))
	for i, s := range e.sites {
		out[i] = s.usage()
	}
	slices.SortFunc(out, func(a, b SiteUsage) int { return strings.Compare(a.Site, b.Site) })
	return out
}

var _ engine.Executor = (*Executor)(nil)
var _ engine.RecordRecycler = (*Executor)(nil)
