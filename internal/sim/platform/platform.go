package platform

import (
	"fmt"
	"sort"
	"strconv"

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
	// active holds, by slab index, what a correlated preemption needs of
	// every occupied-slot attempt; maintained only when a fault timeline is
	// installed (tracking), so a healthy run's attempt records do not
	// carry it.
	tracking   bool
	active     map[int32]occupied
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
	// nodeNames is the Slots-sized node-name table, filled on first use: a
	// record's node label is an index, and a cell that runs ten attempts
	// formats ten names.
	nodeNames []string
	// attempts holds one record per in-flight attempt; the events of an
	// attempt carry its index.
	attempts attemptSlab
	// recs allocates kickstart records in chunks; records live exactly as
	// long as the run's log, so chunked arena allocation amortizes one
	// heap allocation over recChunk attempts.
	recs recArena
}

// recChunk is the kickstart-record arena chunk size.
const recChunk = 256

// noCopy makes `go vet` (copylocks) reject a by-value copy of any struct that
// holds it: the zero-size guard of this package's slab types.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// recArena hands out *kickstart.Record values from append-only chunks.
// Handed-out pointers stay valid because a chunk is never regrown — when
// one fills, the arena starts a fresh chunk. Records returned through
// recycle are reissued before any new chunk space is used, so an
// aggregating run (which folds and recycles every record) keeps the
// arena at O(in-flight attempts) regardless of attempt count.
//
// A by-value copy aliases the open chunk, so both copies would hand out
// the same record slots; go vet flags it.
type recArena struct {
	_     noCopy
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
		attempts: attemptSlab{free: -1},
	}
	e.nodeNames = make([]string, cfg.Slots)
	if ramp {
		// Every step is scheduled up front, in order: a fault step landing
		// on a multiple of SlotRampInterval must keep firing after the ramp
		// step of the same instant.
		steps := cfg.Slots - cfg.InitialSlots
		sim.Reserve(steps)
		for k := 1; k <= steps; k++ {
			sim.AtOp(des.Time(float64(k)*cfg.SlotRampInterval), e, opRamp, int32(cfg.InitialSlots+k))
		}
	}
	return e, nil
}

// Reserve sizes the executor for a plan of the given number of jobs: the
// kernel's event arena and heap, the slot pool's request arena and queue and
// the attempt slab are each allocated once instead of grown. The caller
// that owns both the plan and the executor calls it before the run; it is
// a sizing hint whose absence changes bytes allocated, never results.
func (e *Executor) Reserve(jobs int) {
	e.sim.Reserve(jobs)
	e.reserveSite(jobs)
}

// reserveSite sizes the per-site state (everything but the shared kernel).
func (e *Executor) reserveSite(jobs int) {
	e.slots.Reserve(jobs)
	e.attempts.reserve(jobs)
}

// nodeName returns the label of node i, formatting it on first use.
func (e *Executor) nodeName(i int32) string {
	if e.nodeNames[i] == "" {
		e.nodeNames[i] = formatNodeName(e.cfg.Name, i)
	}
	return e.nodeNames[i]
}

// formatNodeName is fmt.Sprintf("%s-node-%04d", site, i) for i >= 0, built
// in a stack buffer so the string is the only allocation: a sweep cell
// formats a label per attempt, and Sprintf was a tenth of its CPU.
func formatNodeName(site string, i int32) string {
	var buf [64]byte
	b := append(buf[:0], site...)
	b = append(b, "-node-"...)
	for width := int32(1000); width > 1 && i < width; width /= 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendInt(b, int64(i), 10))
}

// The executor's event operations. An attempt's events carry its slab
// index as the argument; the capacity events carry what their comment says.
const (
	opSubmit   int32 = iota // a SubmitAfter delay ran out
	opDispatch              // dispatch latency over: queue for a slot
	opGranted               // slot granted: run on a node
	opEvicted               // the preemption hazard fired first
	opDone                  // setup and payload ran to completion
	opRamp                  // slot-ramp step; arg = new base capacity
	opCapLimit              // fault capacity step; arg = index in faults.Steps
	opPreempt               // correlated preemption; arg = index in faults.Preempts
)

// HandleEvent implements des.Handler: every event the executor schedules
// is one of the operations above.
func (e *Executor) HandleEvent(op, arg int32) {
	switch op {
	case opSubmit:
		e.dispatchAttempt(arg)
	case opDispatch:
		e.slots.AcquireOp(1, e, opGranted, arg)
	case opGranted:
		e.runOnNode(arg)
	case opEvicted:
		e.finishEvicted(arg, "slot reclaimed by resource owner")
	case opDone:
		e.finishDone(arg)
	case opRamp:
		e.setBaseCapacity(int(arg))
	case opCapLimit:
		e.setCapLimit(e.faults.Steps[arg].Limit)
	case opPreempt:
		e.preemptOccupied(e.faults.Preempts[arg].Fraction)
	}
}

// attempt is the state of one in-flight attempt, from submission to its
// terminal event: what the three closures of the callback formulation
// (dispatch delay, slot grant, done/evict) captured, and enough to finalize
// an evicted attempt's record the same way whether the hazard or a site
// fault took the slot. The kickstart record is built from it at the
// terminal event.
type attempt struct {
	job  *planner.Job
	emit func(engine.Event)
	// submitTime is when the engine handed the attempt over; setupStart
	// when its slot was granted.
	submitTime, setupStart float64
	setupDur, nodeSpeed    float64
	attempt                int32
	// node indexes nodeNames; a free record holds its free-list link here.
	node int32
}

// occupied is the extra state of an attempt holding a slot on a site with a
// fault timeline: its place in admission order, which is the order
// correlated preemptions visit attempts in, and the pending terminal event
// (opDone or opEvicted) such a preemption cancels.
type occupied struct {
	seq  int64
	done des.EventID
}

// attemptSlab is the index-addressed, free-listed store of attempt records.
// It may regrow on alloc, so a *attempt must not be held across a call that
// can submit; events and the active map hold indices. A by-value copy would
// alias the records and the free list; go vet flags it.
type attemptSlab struct {
	_    noCopy
	recs []attempt
	free int32 // head of the free list threaded through attempt.node; -1 when empty
}

func (s *attemptSlab) alloc() int32 {
	i := s.free
	if i < 0 {
		return s.extend()
	}
	s.free = s.recs[i].node
	return i
}

// extend adds one record, doubling the slab when it is full (append's
// 1.25× steps would re-allocate a 100k-record slab several times over).
// Not inlined, so the guarded alloc (escapegate) holds no allocation site.
//
//go:noinline
func (s *attemptSlab) extend() int32 {
	if len(s.recs) == cap(s.recs) {
		s.reserve(len(s.recs) + 8)
	}
	s.recs = append(s.recs, attempt{})
	return int32(len(s.recs) - 1)
}

// reserve makes room for n more records.
func (s *attemptSlab) reserve(n int) {
	if n += len(s.recs); n > cap(s.recs) {
		s.recs = append(make([]attempt, 0, n), s.recs...)
	}
}

// release recycles record i, dropping its references.
func (s *attemptSlab) release(i int32) {
	s.recs[i] = attempt{node: s.free}
	s.free = i
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
		e.active = make(map[int32]occupied)
	}
	for i, st := range tl.Steps {
		e.sim.AtOp(des.Time(st.At), e, opCapLimit, int32(i))
	}
	for i, p := range tl.Preempts {
		e.sim.AtOp(des.Time(p.At), e, opPreempt, int32(i))
	}
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
	type victim struct {
		occupied
		idx int32
	}
	victims := make([]victim, 0, len(e.active))
	for idx, o := range e.active {
		victims = append(victims, victim{o, idx})
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].seq < victims[j].seq })
	for _, v := range victims {
		if fraction < 1 && e.frng.Float64() >= fraction {
			continue
		}
		e.sim.Cancel(v.done)
		e.finishEvicted(v.idx, "slot lost to site fault")
	}
}

// retire ends attempt idx: its record leaves the slab and the active map
// and is returned by value, since the emit that follows may submit and
// regrow the slab.
func (e *Executor) retire(idx int32) attempt {
	a := e.attempts.recs[idx]
	e.attempts.release(idx)
	if e.tracking {
		delete(e.active, idx)
	}
	return a
}

// newRecord starts the kickstart record of a terminated attempt.
func (e *Executor) newRecord(a *attempt) *kickstart.Record {
	rec := e.recs.alloc()
	*rec = kickstart.Record{
		JobID:          a.job.ID,
		Transformation: a.job.Transformation,
		Site:           e.cfg.Name,
		Node:           e.nodeName(a.node),
		Attempt:        int(a.attempt),
		SubmitTime:     a.submitTime,
		SetupStart:     a.setupStart,
	}
	if len(a.job.Members) > 0 {
		rec.ClusterID = a.job.ID
	}
	return rec
}

// finishEvicted finalizes an evicted attempt's record, frees its slot and
// emits the eviction event — shared by hazard evictions and correlated
// fault preemptions.
func (e *Executor) finishEvicted(idx int32, msg string) {
	a := e.retire(idx)
	end := e.Now()
	rec := e.newRecord(&a)
	rec.ExecStart = a.setupStart + a.setupDur
	if rec.ExecStart > end {
		rec.ExecStart = end // evicted during setup
	}
	rec.EndTime = end
	rec.Status = kickstart.StatusEvicted
	rec.ExitMessage = msg
	e.slots.Release(1)
	a.emit(engine.Event{
		JobID: a.job.ID, Type: engine.EventEvicted, Time: end, Record: rec,
	})
}

// finishDone is the terminal event of an attempt that ran to completion.
func (e *Executor) finishDone(idx int32) {
	a := e.retire(idx)
	end := e.Now()
	e.slots.Release(1)
	if len(a.job.Members) > 0 {
		a.emit(engine.Event{
			JobID: a.job.ID, Type: engine.EventFinished, Time: end,
			Members: e.memberRecords(&a, end),
		})
		return
	}
	rec := e.newRecord(&a)
	rec.ExecStart = a.setupStart + a.setupDur
	rec.EndTime = end
	rec.Status = kickstart.StatusSuccess
	a.emit(engine.Event{
		JobID: a.job.ID, Type: engine.EventFinished, Time: end, Record: rec,
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
	e.dispatchAttempt(e.newAttempt(job, attempt, emit))
}

// newAttempt opens the record of one attempt.
func (e *Executor) newAttempt(job *planner.Job, attempt int, emit func(engine.Event)) int32 {
	idx := e.attempts.alloc()
	a := &e.attempts.recs[idx]
	a.job, a.attempt, a.emit = job, int32(attempt), emit
	return idx
}

// dispatchAttempt passes the attempt through the submit host and schedules
// the end of its dispatch latency.
func (e *Executor) dispatchAttempt(idx int32) {
	now := e.Now()
	// Serialize submissions through the submit host.
	release := now
	if e.nextFree > release {
		release = e.nextFree
	}
	e.nextFree = release + e.cfg.SubmitInterval
	e.submitted++

	e.attempts.recs[idx].submitTime = now
	delay := (release - now) + e.dispatch.LogNormalMeanCV(e.cfg.DispatchMean, e.cfg.DispatchCV)
	if e.faults != nil {
		// A dispatch landing inside a blackout window is held until the
		// window ends — the scheduler simply stops matching jobs.
		land := e.faults.DelayThroughBlackouts(now + delay)
		delay = land - now
	}
	e.sim.AfterOp(delay, e, opDispatch, idx)
}

// runOnNode starts the setup and payload phases once a slot is granted,
// racing them against the platform's preemption hazard: it schedules the
// attempt's one terminal event.
func (e *Executor) runOnNode(idx int32) {
	a := &e.attempts.recs[idx] // nothing below submits, so a stays valid
	job := a.job
	a.setupStart = e.Now()
	e.nodeSeq++
	a.node = int32(e.nodeSeq % e.cfg.Slots)

	a.nodeSpeed = e.cfg.SpeedFactor
	if e.cfg.SpeedJitter > 0 {
		a.nodeSpeed *= e.speed.Uniform(1-e.cfg.SpeedJitter, 1+e.cfg.SpeedJitter)
	}

	if job.NeedsInstall {
		// The install is paid once per grid job: a composite (clustered)
		// job stages its software stack a single time and all member
		// payloads share it — the amortization clustering buys.
		a.setupDur = e.setup.LogNormalMeanCV(e.cfg.SetupMean, e.cfg.SetupCV)
		if e.cfg.SetupBytesPerSec > 0 && job.InstallBytes > 0 {
			a.setupDur += float64(job.InstallBytes) / e.cfg.SetupBytesPerSec
		}
	}
	execDur := job.ExecSeconds * a.nodeSpeed
	if len(job.Members) > 0 {
		// Members run sequentially on the slot; summing their scaled
		// durations keeps the per-member records exactly consistent with
		// the composite's end time.
		execDur = 0
		for _, m := range job.Members {
			execDur += m.ExecSeconds * a.nodeSpeed
		}
	}
	total := a.setupDur + execDur

	op, after := opDone, total
	hazards := e.faults != nil && len(e.faults.Hazards) > 0
	if e.cfg.EvictionRate > 0 && !hazards {
		if tte := e.evict.Exponential(1 / e.cfg.EvictionRate); tte < total {
			op, after = opEvicted, tte
		}
	} else if hazards {
		if tte, ok := e.stormEvictionTime(a.setupStart, total); ok {
			op, after = opEvicted, tte
		}
	}
	done := e.sim.AfterOp(after, e, op, idx)
	if e.tracking {
		e.attemptSeq++
		e.active[idx] = occupied{seq: e.attemptSeq, done: done}
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
	e.sim.AfterOp(delay, e, opSubmit, e.newAttempt(job, attempt, e.emit))
}

// memberRecords builds the per-task kickstart records of one successful
// composite-job attempt. Member 0 carries the shared setup phase; each
// later member's waiting phase extends until the slot turned to it (it
// queued behind its siblings on the node) and its own setup is zero — the
// install was already paid. The last member is pinned to the composite's
// end time so the records and the engine event agree to the bit.
func (e *Executor) memberRecords(a *attempt, end float64) []*kickstart.Record {
	job, node := a.job, e.nodeName(a.node)
	out := make([]*kickstart.Record, 0, len(job.Members))
	t := a.setupStart + a.setupDur
	for i, m := range job.Members {
		start := t
		t += m.ExecSeconds * a.nodeSpeed
		rec := e.recs.alloc()
		*rec = kickstart.Record{
			JobID:          m.TaskID,
			Transformation: job.Transformation,
			Site:           e.cfg.Name,
			Node:           node,
			Attempt:        int(a.attempt),
			ClusterID:      job.ID,
			SubmitTime:     a.submitTime,
			SetupStart:     a.setupStart,
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
