package platform

import (
	"fmt"
	"sort"

	"pegflow/internal/engine"
	"pegflow/internal/fault"
	"pegflow/internal/fifo"
	"pegflow/internal/kickstart"
	"pegflow/internal/planner"
	"pegflow/internal/sim/des"
)

// MultiExecutor is a pool of simulated platforms sharing one virtual
// clock. It implements engine.Executor for multi-site plans: each
// submitted job is routed to the platform named by its Site, and events
// from every site interleave in global virtual-time order — the paper's
// scenario of one WMS feeding a campus cluster and an opportunistic grid
// at the same time.
//
// An ensemble driver can also use a MultiExecutor as a shared platform
// pool for many concurrent workflows via SubmitTagged, which lets it
// attribute each terminal event to the submitting workflow.
type MultiExecutor struct {
	sim     *des.Simulation
	sites   map[string]*Executor
	order   []string
	pending fifo.Queue[engine.Event]
}

// NewMultiExecutor builds a shared-clock pool from the given platform
// configurations. Names must be distinct.
func NewMultiExecutor(cfgs []Config) (*MultiExecutor, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("platform: multi-executor with no platforms")
	}
	m := &MultiExecutor{
		sim:   des.New(),
		sites: make(map[string]*Executor, len(cfgs)),
	}
	for _, cfg := range cfgs {
		if _, dup := m.sites[cfg.Name]; dup {
			return nil, fmt.Errorf("platform: duplicate platform %q in pool", cfg.Name)
		}
		e, err := newExecutorOn(m.sim, cfg)
		if err != nil {
			return nil, err
		}
		e.emit = func(ev engine.Event) { m.pending.Push(ev) }
		m.sites[cfg.Name] = e
		m.order = append(m.order, cfg.Name)
	}
	return m, nil
}

// Now returns the shared virtual time in seconds.
func (m *MultiExecutor) Now() float64 { return m.sim.Now().Seconds() }

// SiteNames returns the pool's platform names in sorted order.
func (m *MultiExecutor) SiteNames() []string {
	out := append([]string(nil), m.order...)
	sort.Strings(out)
	return out
}

// Site returns the pool member with the given name, or nil.
func (m *MultiExecutor) Site(name string) *Executor { return m.sites[name] }

// Submit routes the job attempt to the platform named by its Site. It
// panics on an unknown site: plans must be validated against the pool
// before execution (see CheckPlan).
func (m *MultiExecutor) Submit(job *planner.Job, attempt int) {
	m.site(job).Submit(job, attempt)
}

// SubmitTagged routes the job attempt like Submit but delivers its
// terminal event through emit instead of the pool's shared queue.
func (m *MultiExecutor) SubmitTagged(job *planner.Job, attempt int, emit func(engine.Event)) {
	m.site(job).SubmitTagged(job, attempt, emit)
}

// SubmitAfter routes the job attempt to its site after a virtual delay —
// the engine's backoff hook.
func (m *MultiExecutor) SubmitAfter(job *planner.Job, attempt int, delay float64) {
	m.site(job).SubmitAfter(job, attempt, delay)
}

// AfterOp schedules h.HandleEvent(op, arg) on the pool's shared clock.
// Ensemble drivers use it to delay re-submissions (backoff) in virtual
// time; the event fires inside the pool's event loop like any other.
func (m *MultiExecutor) AfterOp(delay float64, h des.Handler, op, arg int32) {
	m.sim.AfterOp(delay, h, op, arg)
}

// Reserve sizes the pool for plans totalling the given number of jobs (see
// Executor.Reserve): the shared kernel for all of them, and every site for
// an even share — where the plans actually place them is the policy's
// business, and a site that gets more than its share grows by doubling.
func (m *MultiExecutor) Reserve(jobs int) {
	m.sim.Reserve(jobs)
	for _, name := range m.order {
		m.sites[name].reserveSite(jobs / len(m.order))
	}
}

// InstallFaults arms each faulted site with its compiled timeline. Must
// be called before any submissions; a nil script is a no-op. Faulting a
// site the pool does not have is an error — fault scripts are validated
// against the same site list as plans.
func (m *MultiExecutor) InstallFaults(s *fault.Script) error {
	if s == nil {
		return nil
	}
	for _, name := range s.Sites() {
		e := m.sites[name]
		if e == nil {
			return fmt.Errorf("platform: fault script targets site %q, not in pool %v",
				name, m.order)
		}
		e.InstallFaults(s.Site(name))
	}
	return nil
}

func (m *MultiExecutor) site(job *planner.Job) *Executor {
	e := m.sites[job.Site]
	if e == nil {
		panic(fmt.Sprintf("platform: job %q targets site %q, not in pool %v",
			job.ID, job.Site, m.order))
	}
	return e
}

// Next advances shared virtual time until a job event is available.
func (m *MultiExecutor) Next() engine.Event {
	for m.pending.Len() == 0 {
		if !m.sim.Step() {
			panic("platform: multi-executor deadlock: no pending events but jobs outstanding")
		}
	}
	return m.pending.Pop()
}

// Step executes the next simulation event, returning false when the
// virtual-event queue is empty. Ensemble drivers step the pool directly
// instead of calling Next.
func (m *MultiExecutor) Step() bool { return m.sim.Step() }

// Recycle routes a spent record back to the arena of the site that
// allocated it. Records carry their allocating site in Site (platform
// executors never re-site a record), so the pool can route without
// extra bookkeeping.
func (m *MultiExecutor) Recycle(r *kickstart.Record) {
	if e := m.sites[r.Site]; e != nil {
		e.Recycle(r)
	}
}

// CheckPlan verifies that every job of the plan targets a pool member.
func (m *MultiExecutor) CheckPlan(plan *planner.Plan) error {
	for i, n := int32(0), int32(plan.Len()); i < n; i++ {
		j := plan.JobAt(i)
		if _, ok := m.sites[j.Site]; !ok {
			return fmt.Errorf("platform: plan job %q targets site %q, not in pool %v",
				j.ID, j.Site, m.order)
		}
	}
	return nil
}

var _ engine.Executor = (*MultiExecutor)(nil)
