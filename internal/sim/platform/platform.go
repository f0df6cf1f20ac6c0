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
	"pegflow/internal/sim/rng"
)

// Config describes one simulated platform.
type Config struct {
	// Name labels the platform (used as the site name in records).
	Name string
	// Slots is the number of concurrently usable job slots.
	Slots int
	// SubmitInterval serializes job submission on the submit host:
	// the k-th submission is released k*SubmitInterval seconds after
	// it is handed to the executor (DAGMan/Condor submit throttle).
	SubmitInterval float64
	// DispatchMean and DispatchCV parameterize the lognormal per-job
	// dispatch latency (queueing before a slot request is even made).
	DispatchMean, DispatchCV float64
	// SpeedFactor scales execution time (exec = ExecSeconds * factor /
	// nodeSpeed); 1.0 = reference speed, lower = faster.
	SpeedFactor float64
	// SpeedJitter is the relative node heterogeneity: each attempt draws
	// a node factor uniform in [SpeedFactor*(1-J), SpeedFactor*(1+J)].
	SpeedJitter float64
	// SetupMean and SetupCV parameterize the lognormal download+install
	// duration for jobs with NeedsInstall.
	SetupMean, SetupCV float64
	// SetupBytesPerSec adds InstallBytes/SetupBytesPerSec to the setup
	// phase when positive (bigger software stacks take longer).
	SetupBytesPerSec float64
	// EvictionRate is the preemption hazard (events per second of
	// occupancy). 0 disables preemption.
	EvictionRate float64
	// InitialSlots and SlotRampInterval model opportunistic capacity:
	// the pool starts at InitialSlots and gains one slot every
	// SlotRampInterval seconds until it reaches Slots (glideins joining
	// as other VOs release resources). InitialSlots 0 or ≥ Slots, or a
	// zero interval, disables the ramp (dedicated allocation).
	InitialSlots     int
	SlotRampInterval float64
	// Seed makes runs reproducible.
	Seed uint64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("platform: config with empty name")
	}
	if c.Slots <= 0 {
		return fmt.Errorf("platform: %s: non-positive slots %d", c.Name, c.Slots)
	}
	if c.SpeedFactor <= 0 {
		return fmt.Errorf("platform: %s: non-positive speed factor %v", c.Name, c.SpeedFactor)
	}
	if c.SpeedJitter < 0 || c.SpeedJitter >= 1 {
		return fmt.Errorf("platform: %s: speed jitter %v outside [0,1)", c.Name, c.SpeedJitter)
	}
	if c.DispatchMean < 0 || c.SetupMean < 0 || c.EvictionRate < 0 || c.SubmitInterval < 0 {
		return fmt.Errorf("platform: %s: negative rate or mean", c.Name)
	}
	if c.InitialSlots < 0 || c.SlotRampInterval < 0 {
		return fmt.Errorf("platform: %s: negative slot ramp parameters", c.Name)
	}
	return nil
}

// Sandhills returns the campus-cluster model: a fixed allocation of
// homogeneous slots with preinstalled software, small steady dispatch
// latency and no preemption — "after these resources are allocated, they
// are utilized until the tasks terminate" (paper §VI.A).
func Sandhills(seed uint64) Config {
	return Config{
		Name:           "sandhills",
		Slots:          400,
		SubmitInterval: 1.0,
		DispatchMean:   30,
		DispatchCV:     0.3,
		SpeedFactor:    1.0,
		SpeedJitter:    0.05,
		Seed:           seed,
	}
}

// OSG returns the opportunistic-grid model: more slots than the campus
// allocation, heterogeneous nodes (some faster than Sandhills), uneven
// heavy-tailed dispatch latency, a download/install phase on every job
// (nothing preinstalled), and a preemption hazard (paper §VI.A-B).
func OSG(seed uint64) Config {
	return Config{
		Name:             "osg",
		Slots:            600,
		SubmitInterval:   1.2,
		DispatchMean:     700,
		DispatchCV:       1.1,
		SpeedFactor:      0.88,
		SpeedJitter:      0.35,
		SetupMean:        480,
		SetupCV:          0.5,
		SetupBytesPerSec: 25e6,
		EvictionRate:     5e-6,
		InitialSlots:     30,
		SlotRampInterval: 25,
		Seed:             seed,
	}
}

// Cloud returns an academic/commercial IaaS model — the paper's future
// work (§VII: "Using academic and commercial clouds as an execution
// platform for the blast2cap3 workflow ... will be challenging, but
// important and useful further step"). Virtual machines boot from an
// image that already contains the software stack (no install step), are
// never preempted, and provision on demand with a short ramp; node speed
// is slightly below the campus cluster's bare metal (virtualization tax).
func Cloud(seed uint64) Config {
	return Config{
		Name:             "cloud",
		Slots:            512,
		SubmitInterval:   1.0,
		DispatchMean:     95, // VM provisioning / scheduler latency
		DispatchCV:       0.5,
		SpeedFactor:      1.08,
		SpeedJitter:      0.08,
		InitialSlots:     24,
		SlotRampInterval: 8,
		Seed:             seed,
	}
}

// Executor runs planned jobs on a simulated platform in virtual time. It
// implements engine.Executor; the engine's control flow is identical to
// the real-execution path.
type Executor struct {
	cfg   Config
	sim   *des.Simulation
	slots *des.Resource

	dispatch *rng.Stream
	speed    *rng.Stream
	setup    *rng.Stream
	evict    *rng.Stream
	frng     *rng.Stream // fault decisions (storm kill draws); idle without faults

	// faults is the site's compiled fault timeline; nil for a healthy run,
	// in which case none of the fault paths below are ever entered and the
	// executor's event stream is bit-identical to earlier versions.
	faults *fault.Timeline
	// capBase is the ramp-managed capacity; capLimit the fault-imposed
	// one. The slot pool always runs at min(capBase, capLimit).
	capBase  int
	capLimit int
	// active tracks occupied-slot attempts so correlated preemptions can
	// evict them; maintained only when a fault timeline is installed.
	tracking   bool
	active     map[int64]*runningAttempt
	attemptSeq int64
	// Outage/downtime accounting: an outage is any interval with the
	// fault-imposed limit at zero.
	outages     int
	downSince   float64
	downSeconds float64
	// bpScratch is reused across hazard-window integrations.
	bpScratch []float64

	// emit delivers terminal events; by default it appends to pending,
	// but a MultiExecutor routes it into a shared queue, and per-job
	// overrides (SubmitTagged) let an ensemble driver demultiplex.
	emit      func(engine.Event)
	pending   fifo.Queue[engine.Event]
	submitted int
	nextFree  float64 // submit-host release time for the next submission
	nodeSeq   int
	// nodeNames is the precomputed Slots-sized node-name table, so the
	// per-attempt node label is an index instead of an fmt.Sprintf.
	nodeNames []string
	// recs allocates kickstart records in chunks; records live exactly as
	// long as the run's log, so chunked arena allocation amortizes one
	// heap allocation over recChunk attempts.
	recs recArena
}

// recChunk is the kickstart-record arena chunk size.
const recChunk = 256

// recArena hands out *kickstart.Record values from append-only chunks.
// Handed-out pointers stay valid because a chunk is never regrown — when
// one fills, the arena starts a fresh chunk. Records returned through
// recycle are reissued before any new chunk space is used, so an
// aggregating run (which folds and recycles every record) keeps the
// arena at O(in-flight attempts) regardless of attempt count.
//
// A by-value copy aliases the open chunk, so both copies would hand out
// the same record slots; slabcopy flags it.
//
//pegflow:slab
type recArena struct {
	chunk []kickstart.Record
	free  []*kickstart.Record
	// allocated counts fresh slots ever created (recycled reissues are
	// free): the arena's high-water retention, which an aggregating run
	// must keep at O(in-flight) regardless of attempt count.
	allocated int
}

func (a *recArena) alloc() *kickstart.Record {
	if n := len(a.free); n > 0 {
		r := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		return r
	}
	if len(a.chunk) == cap(a.chunk) {
		a.chunk = make([]kickstart.Record, 0, recChunk)
	}
	a.chunk = append(a.chunk, kickstart.Record{})
	a.allocated++
	return &a.chunk[len(a.chunk)-1]
}

// ArenaRecords reports the number of kickstart-record slots the executor
// has ever materialized — the record-retention high-water mark. An
// aggregating run recycles records through the engine, so this stays at
// the in-flight level however many attempts the run makes.
func (e *Executor) ArenaRecords() int { return e.recs.allocated }

func (a *recArena) recycle(r *kickstart.Record) {
	a.free = append(a.free, r)
}

// NewExecutor builds an executor for the platform configuration with its
// own virtual clock.
func NewExecutor(cfg Config) (*Executor, error) {
	e, err := newExecutorOn(des.New(), cfg)
	if err != nil {
		return nil, err
	}
	e.emit = func(ev engine.Event) { e.pending.Push(ev) }
	return e, nil
}

// newExecutorOn builds an executor sharing the given simulation — the
// building block of multi-site pools, where every site advances one common
// virtual clock. The caller must set emit before submitting.
func newExecutorOn(sim *des.Simulation, cfg Config) (*Executor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	base := rng.New(cfg.Seed).Derive("platform/" + cfg.Name)
	startSlots := cfg.Slots
	ramp := cfg.InitialSlots > 0 && cfg.InitialSlots < cfg.Slots && cfg.SlotRampInterval > 0
	if ramp {
		startSlots = cfg.InitialSlots
	}
	e := &Executor{
		cfg:      cfg,
		sim:      sim,
		slots:    des.NewResource(sim, startSlots),
		dispatch: base.Derive("dispatch"),
		speed:    base.Derive("speed"),
		setup:    base.Derive("setup"),
		evict:    base.Derive("evict"),
		frng:     base.Derive("fault"),
		capBase:  startSlots,
		capLimit: fault.NoLimit,
	}
	e.nodeNames = make([]string, cfg.Slots)
	for i := range e.nodeNames {
		e.nodeNames[i] = fmt.Sprintf("%s-node-%04d", cfg.Name, i)
	}
	if ramp {
		for k := 1; k <= cfg.Slots-cfg.InitialSlots; k++ {
			target := cfg.InitialSlots + k
			sim.At(des.Time(float64(k)*cfg.SlotRampInterval), func() {
				e.setBaseCapacity(target)
			})
		}
	}
	return e, nil
}

// InstallFaults arms the executor with a compiled fault timeline,
// scheduling its capacity steps and correlated preemptions as simulation
// events. Must be called before any submissions, at virtual time zero.
func (e *Executor) InstallFaults(tl *fault.Timeline) {
	if tl == nil {
		return
	}
	e.faults = tl
	e.tracking = true
	if e.active == nil {
		e.active = make(map[int64]*runningAttempt)
	}
	for _, st := range tl.Steps {
		limit := st.Limit
		e.sim.At(des.Time(st.At), func() { e.setCapLimit(limit) })
	}
	for _, p := range tl.Preempts {
		frac := p.Fraction
		e.sim.At(des.Time(p.At), func() { e.preemptOccupied(frac) })
	}
}

// runningAttempt is the occupied-slot state a correlated preemption needs
// to evict an attempt: the pending terminal event to cancel and enough of
// the record context to finalize it the way a hazard eviction would.
type runningAttempt struct {
	job        *planner.Job
	attempt    int
	rec        *kickstart.Record
	emit       func(engine.Event)
	setupStart float64
	setupDur   float64
	done       des.EventID
}

// setBaseCapacity updates the ramp-managed capacity.
func (e *Executor) setBaseCapacity(c int) {
	e.capBase = c
	e.applyCapacity()
}

// setCapLimit updates the fault-imposed limit, tracking outage intervals
// (limit at zero) for the downtime accounting.
func (e *Executor) setCapLimit(limit int) {
	wasDown := e.capLimit == 0
	e.capLimit = limit
	if limit == 0 && !wasDown {
		e.outages++
		e.downSince = e.Now()
	} else if limit != 0 && wasDown {
		e.downSeconds += e.Now() - e.downSince
	}
	e.applyCapacity()
}

func (e *Executor) applyCapacity() {
	eff := e.capBase
	if e.capLimit < eff {
		eff = e.capLimit
	}
	e.slots.SetCapacity(eff)
}

// preemptOccupied evicts each occupied-slot attempt independently with
// the given probability (1 = all). Attempts are visited in admission
// order so the draw sequence — and therefore the output — is fully
// deterministic.
func (e *Executor) preemptOccupied(fraction float64) {
	if len(e.active) == 0 {
		return
	}
	keys := make([]int64, 0, len(e.active))
	for k := range e.active {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		if fraction < 1 && e.frng.Float64() >= fraction {
			continue
		}
		a := e.active[k]
		delete(e.active, k)
		e.sim.Cancel(a.done)
		e.finishEvicted(a.rec, a.job, a.setupStart, a.setupDur,
			"slot lost to site fault", a.emit)
	}
}

// finishEvicted finalizes an evicted attempt's record, frees its slot and
// emits the eviction event — shared by hazard evictions and correlated
// fault preemptions.
func (e *Executor) finishEvicted(rec *kickstart.Record, job *planner.Job,
	setupStart, setupDur float64, msg string, emit func(engine.Event)) {
	end := e.Now()
	rec.ExecStart = setupStart + setupDur
	if rec.ExecStart > end {
		rec.ExecStart = end // evicted during setup
	}
	rec.EndTime = end
	rec.Status = kickstart.StatusEvicted
	rec.ExitMessage = msg
	e.slots.Release(1)
	emit(engine.Event{
		JobID: job.ID, Type: engine.EventEvicted, Time: end, Record: rec,
	})
}

// Outages reports how many fault-imposed full outages have begun.
func (e *Executor) Outages() int { return e.outages }

// DowntimeSeconds reports the virtual seconds spent in outage so far,
// including the open interval of an outage still in progress (or one
// spanning the end of the run).
func (e *Executor) DowntimeSeconds() float64 {
	d := e.downSeconds
	if e.capLimit == 0 {
		d += e.Now() - e.downSince
	}
	return d
}

// Now returns the current virtual time in seconds.
func (e *Executor) Now() float64 { return e.sim.Now().Seconds() }

// MaxBusySlots reports the high-water mark of concurrently busy slots.
func (e *Executor) MaxBusySlots() int { return e.slots.MaxInUse }

// BusySlotSeconds reports the slot·seconds of occupancy so far.
func (e *Executor) BusySlotSeconds() float64 { return e.slots.BusySlotSeconds() }

// CapacitySlotSeconds reports the slot·seconds of capacity so far
// (accounting for opportunistic slot ramps).
func (e *Executor) CapacitySlotSeconds() float64 { return e.slots.CapacitySlotSeconds() }

// Config returns the platform configuration.
func (e *Executor) Config() Config { return e.cfg }

// Submit schedules the job attempt onto the platform.
func (e *Executor) Submit(job *planner.Job, attempt int) {
	e.submitWith(job, attempt, e.emit)
}

// SubmitTagged schedules the job attempt, delivering its terminal event
// through emit instead of the executor's own queue. Ensemble drivers use
// this to attribute events to the submitting workflow.
func (e *Executor) SubmitTagged(job *planner.Job, attempt int, emit func(engine.Event)) {
	e.submitWith(job, attempt, emit)
}

func (e *Executor) submitWith(job *planner.Job, attempt int, emit func(engine.Event)) {
	now := e.Now()
	// Serialize submissions through the submit host.
	release := now
	if e.nextFree > release {
		release = e.nextFree
	}
	e.nextFree = release + e.cfg.SubmitInterval
	e.submitted++

	submitTime := now
	delay := (release - now) + e.dispatch.LogNormalMeanCV(e.cfg.DispatchMean, e.cfg.DispatchCV)
	if e.faults != nil {
		// A dispatch landing inside a blackout window is held until the
		// window ends — the scheduler simply stops matching jobs.
		land := e.faults.DelayThroughBlackouts(now + delay)
		delay = land - now
	}
	e.sim.After(delay, func() {
		e.slots.Acquire(1, func() {
			e.runOnNode(job, attempt, submitTime, emit)
		})
	})
}

// runOnNode executes the setup and payload phases once a slot is granted,
// racing them against the platform's preemption hazard.
func (e *Executor) runOnNode(job *planner.Job, attempt int, submitTime float64, emit func(engine.Event)) {
	setupStart := e.Now()
	e.nodeSeq++
	node := e.nodeNames[e.nodeSeq%e.cfg.Slots]

	nodeSpeed := e.cfg.SpeedFactor
	if e.cfg.SpeedJitter > 0 {
		nodeSpeed *= e.speed.Uniform(1-e.cfg.SpeedJitter, 1+e.cfg.SpeedJitter)
	}

	var setupDur float64
	if job.NeedsInstall {
		// The install is paid once per grid job: a composite (clustered)
		// job stages its software stack a single time and all member
		// payloads share it — the amortization clustering buys.
		setupDur = e.setup.LogNormalMeanCV(e.cfg.SetupMean, e.cfg.SetupCV)
		if e.cfg.SetupBytesPerSec > 0 && job.InstallBytes > 0 {
			setupDur += float64(job.InstallBytes) / e.cfg.SetupBytesPerSec
		}
	}
	execDur := job.ExecSeconds * nodeSpeed
	if len(job.Members) > 0 {
		// Members run sequentially on the slot; summing their scaled
		// durations keeps the per-member records exactly consistent with
		// the composite's end time.
		execDur = 0
		for _, m := range job.Members {
			execDur += m.ExecSeconds * nodeSpeed
		}
	}
	total := setupDur + execDur

	rec := e.recs.alloc()
	*rec = kickstart.Record{
		JobID:          job.ID,
		Transformation: job.Transformation,
		Site:           e.cfg.Name,
		Node:           node,
		Attempt:        attempt,
		SubmitTime:     submitTime,
		SetupStart:     setupStart,
	}
	if len(job.Members) > 0 {
		rec.ClusterID = job.ID
	}

	hazards := e.faults != nil && len(e.faults.Hazards) > 0
	evictAt := -1.0
	if e.cfg.EvictionRate > 0 && !hazards {
		tte := e.evict.Exponential(1 / e.cfg.EvictionRate)
		if tte < total {
			evictAt = tte
		}
	} else if hazards {
		if tte, ok := e.stormEvictionTime(setupStart, total); ok {
			evictAt = tte
		}
	}

	var key int64
	if e.tracking {
		e.attemptSeq++
		key = e.attemptSeq
	}

	if evictAt >= 0 {
		id := e.sim.After(evictAt, func() {
			if key != 0 {
				delete(e.active, key)
			}
			e.finishEvicted(rec, job, setupStart, setupDur,
				"slot reclaimed by resource owner", emit)
		})
		if key != 0 {
			e.active[key] = &runningAttempt{
				job: job, attempt: attempt, rec: rec, emit: emit,
				setupStart: setupStart, setupDur: setupDur, done: id,
			}
		}
		return
	}

	id := e.sim.After(total, func() {
		if key != 0 {
			delete(e.active, key)
		}
		end := e.Now()
		e.slots.Release(1)
		if len(job.Members) > 0 {
			emit(engine.Event{
				JobID: job.ID, Type: engine.EventFinished, Time: end,
				Members: e.memberRecords(job, attempt, node,
					submitTime, setupStart, setupStart+setupDur, nodeSpeed, end),
			})
			return
		}
		rec.ExecStart = setupStart + setupDur
		rec.EndTime = end
		rec.Status = kickstart.StatusSuccess
		emit(engine.Event{
			JobID: job.ID, Type: engine.EventFinished, Time: end, Record: rec,
		})
	})
	if key != 0 {
		e.active[key] = &runningAttempt{
			job: job, attempt: attempt, rec: rec, emit: emit,
			setupStart: setupStart, setupDur: setupDur, done: id,
		}
	}
}

// stormEvictionTime samples the attempt's time-to-eviction under the
// piecewise-constant hazard produced by storm windows: a single
// unit-exponential draw is inverted through the cumulative hazard over
// [start, start+total). Exactly one stream draw per attempt keeps the
// sequence aligned no matter how windows land, so output stays
// deterministic across worker counts.
func (e *Executor) stormEvictionTime(start, total float64) (float64, bool) {
	target := e.evict.Exponential(1)
	end := start + total
	e.bpScratch = e.faults.HazardBreakpoints(e.bpScratch[:0], start, end)
	bps := e.bpScratch
	t0 := start
	for i := 0; i <= len(bps); i++ {
		t1 := end
		if i < len(bps) {
			t1 = bps[i]
		}
		if h := e.faults.HazardAt(e.cfg.EvictionRate, t0); h > 0 {
			seg := (t1 - t0) * h
			if target <= seg {
				return (t0 - start) + target/h, true
			}
			target -= seg
		}
		t0 = t1
	}
	return 0, false
}

// SubmitAfter schedules the job attempt after a virtual delay — the
// engine's backoff hook. A non-positive delay submits immediately.
func (e *Executor) SubmitAfter(job *planner.Job, attempt int, delay float64) {
	if delay <= 0 {
		e.Submit(job, attempt)
		return
	}
	e.sim.After(delay, func() { e.Submit(job, attempt) })
}

// memberRecords builds the per-task kickstart records of one successful
// composite-job attempt. Member 0 carries the shared setup phase; each
// later member's waiting phase extends until the slot turned to it (it
// queued behind its siblings on the node) and its own setup is zero — the
// install was already paid. The last member is pinned to the composite's
// end time so the records and the engine event agree to the bit.
func (e *Executor) memberRecords(job *planner.Job, attempt int, node string,
	submitTime, setupStart, execStart, nodeSpeed, end float64) []*kickstart.Record {
	out := make([]*kickstart.Record, 0, len(job.Members))
	t := execStart
	for i, m := range job.Members {
		start := t
		t += m.ExecSeconds * nodeSpeed
		rec := e.recs.alloc()
		*rec = kickstart.Record{
			JobID:          m.TaskID,
			Transformation: job.Transformation,
			Site:           e.cfg.Name,
			Node:           node,
			Attempt:        attempt,
			ClusterID:      job.ID,
			SubmitTime:     submitTime,
			SetupStart:     setupStart,
			ExecStart:      start,
			EndTime:        t,
			Status:         kickstart.StatusSuccess,
		}
		if i > 0 {
			rec.SetupStart = start
		}
		out = append(out, rec)
	}
	last := out[len(out)-1]
	last.EndTime = end
	if last.ExecStart > end {
		last.ExecStart = end
	}
	if last.SetupStart > last.ExecStart {
		last.SetupStart = last.ExecStart
	}
	return out
}

// Next advances virtual time until a job event is available.
func (e *Executor) Next() engine.Event {
	for e.pending.Len() == 0 {
		if !e.sim.Step() {
			panic("platform: executor deadlock: no pending events but jobs outstanding")
		}
	}
	return e.pending.Pop()
}

// Recycle returns a spent record's arena slot for reuse — the engine's
// aggregation mode calls this after folding each record. The record was
// allocated by this executor (records never change Site) and must not
// be touched by the caller afterwards.
func (e *Executor) Recycle(r *kickstart.Record) { e.recs.recycle(r) }

var _ engine.Executor = (*Executor)(nil)
var _ engine.RecordRecycler = (*Executor)(nil)
