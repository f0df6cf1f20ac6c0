package platform

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"pegflow/internal/engine"
	"pegflow/internal/fault"
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
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"submit interval", c.SubmitInterval},
		{"dispatch mean", c.DispatchMean},
		{"dispatch cv", c.DispatchCV},
		{"speed factor", c.SpeedFactor},
		{"speed jitter", c.SpeedJitter},
		{"setup mean", c.SetupMean},
		{"setup cv", c.SetupCV},
		{"setup bytes per second", c.SetupBytesPerSec},
		{"eviction rate", c.EvictionRate},
		{"slot ramp interval", c.SlotRampInterval},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("platform: %s: %s %v is not finite", c.Name, f.name, f.v)
		}
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

// site is one platform of an Executor's pool: its slots, random streams,
// fault timeline, attempt slab and record arena. It is the des.Handler of
// every event it schedules on the pool's clock, and it delivers terminal
// events to the pool's one queue. A site is storage that outlives its run:
// reset makes it the site of the next pool that takes it.
type site struct {
	cfg   Config
	pool  *storage
	sim   *des.Simulation
	slots des.Resource

	dispatch rng.Stream
	speed    rng.Stream
	setup    rng.Stream
	evict    rng.Stream
	frng     rng.Stream // fault decisions (storm kill draws); idle without faults

	// dispatchDelay and setupTime are the log-normal distributions of cfg's
	// (DispatchMean, DispatchCV) and (SetupMean, SetupCV), derived once
	// rather than at every draw. Like the node-name table they outlive a
	// reset that keeps what they depend on, so a warm site running the same
	// platform takes no logarithm; the zero value is a zero config's.
	dispatchDelay, setupTime rng.MeanCV

	runState

	// active holds, by slab index, what a correlated preemption needs of
	// every occupied-slot attempt; maintained only when a fault timeline is
	// installed, so a healthy run's attempt records do not carry it.
	active map[int32]occupied
	// bpScratch is reused across hazard-window integrations.
	bpScratch []float64

	// nodeNames is the node-name table, grown and filled on first use: a
	// record's node label is an index below Slots, and a cell that runs ten
	// attempts holds and formats ten names, however many slots it has. The
	// labels depend on the site's name only, so the table outlives a reset
	// that keeps the name.
	nodeNames []string
	// attempts holds one record per in-flight attempt; the events of an
	// attempt carry its index.
	attempts attemptSlab
	// recs allocates kickstart records in chunks; records live exactly as
	// long as the run's log, so chunked arena allocation amortizes one
	// heap allocation over recChunk attempts.
	recs recArena
}

// runState is the part of a site's state that holds no storage: reset
// replaces it whole, so a field added here starts every run at its zero
// value or the one reset gives it.
type runState struct {
	// faults is the site's compiled fault timeline; nil for a healthy run,
	// in which case none of the fault paths below are ever entered and the
	// site's event stream is bit-identical to earlier versions.
	faults *fault.Timeline
	// capBase is the ramp-managed capacity; capLimit the fault-imposed
	// one. The slot pool always runs at min(capBase, capLimit).
	capBase    int
	capLimit   int
	attemptSeq int64
	// Outage/downtime accounting: an outage is any interval with the
	// fault-imposed limit at zero.
	outages     int
	downSince   float64
	downSeconds float64

	nextFree float64 // submit-host release time for the next submission
	nodeSeq  int
}

// recChunk is the kickstart-record arena chunk size.
const recChunk = 256

// noCopy makes `go vet` (copylocks) reject a by-value copy of any struct that
// holds it: the zero-size guard of this package's slab types.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// recArena hands out *kickstart.Record values from a list of fixed-size
// chunks. Handed-out pointers stay valid because a chunk is never regrown —
// when one fills, the arena opens the next. Records returned through
// recycle are reissued before any new chunk space is used, so an
// aggregating run (which folds and recycles every record) keeps the arena
// at O(in-flight attempts) regardless of attempt count. A reset rewinds the
// arena to its first chunk, so the next run reissues the same memory: every
// record handed out before it is the next run's.
//
// A by-value copy aliases the open chunk, so both copies would hand out
// the same record slots; go vet flags it.
type recArena struct {
	_ noCopy
	// chunks lists every chunk the arena owns; chunk is the open one,
	// chunks[next-1] cut to the records handed out of it.
	chunks [][]kickstart.Record
	chunk  []kickstart.Record
	next   int
	free   []*kickstart.Record
	// allocated counts fresh slots handed out since the last reset
	// (recycled reissues are free): the arena's high-water retention, which
	// an aggregating run must keep at O(in-flight) regardless of attempt
	// count.
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
		a.open()
	}
	a.chunk = append(a.chunk, kickstart.Record{})
	a.allocated++
	return &a.chunk[len(a.chunk)-1]
}

// open makes the next chunk the open one, allocating it on first use.
func (a *recArena) open() {
	if a.next == len(a.chunks) {
		a.chunks = append(a.chunks, make([]kickstart.Record, 0, recChunk))
	}
	a.chunk = a.chunks[a.next][:0]
	a.next++
}

func (a *recArena) recycle(r *kickstart.Record) {
	a.free = append(a.free, r)
}

// reset rewinds the arena to its first chunk. It writes no record: alloc
// zeroes each one as it reissues it.
func (a *recArena) reset() {
	clear(a.free)
	a.free = a.free[:0]
	a.chunk, a.next, a.allocated = nil, 0, 0
}

// reset makes s the site cfg describes on the pool's clock, as if built
// anew: the same streams, capacity and ramp, no attempt, record or fault. It
// keeps the storage — slot queue, attempt slab, record arena, scratch and
// active map — and the node-name table when cfg keeps the site's name, the
// derived log-normal distributions when cfg keeps their parameters. A
// fresh site is the zero site reset. cfg must be valid.
func (s *site) reset(pool *storage, cfg Config) {
	if cfg.Name != s.cfg.Name {
		clear(s.nodeNames)
		s.nodeNames = s.nodeNames[:0]
	}
	startSlots := cfg.Slots
	ramp := cfg.InitialSlots > 0 && cfg.InitialSlots < cfg.Slots && cfg.SlotRampInterval > 0
	if ramp {
		startSlots = cfg.InitialSlots
	}
	if cfg.DispatchMean != s.cfg.DispatchMean || cfg.DispatchCV != s.cfg.DispatchCV {
		s.dispatchDelay = rng.NewMeanCV(cfg.DispatchMean, cfg.DispatchCV)
	}
	if cfg.SetupMean != s.cfg.SetupMean || cfg.SetupCV != s.cfg.SetupCV {
		s.setupTime = rng.NewMeanCV(cfg.SetupMean, cfg.SetupCV)
	}
	s.cfg, s.pool, s.sim = cfg, pool, &pool.sim
	s.slots.Reset(s.sim, startSlots)
	var base rng.Stream
	base.Reseed(cfg.Seed)
	base.DeriveInto(&base, "platform/"+cfg.Name)
	base.DeriveInto(&s.dispatch, "dispatch")
	base.DeriveInto(&s.speed, "speed")
	base.DeriveInto(&s.setup, "setup")
	base.DeriveInto(&s.evict, "evict")
	base.DeriveInto(&s.frng, "fault")
	s.runState = runState{capBase: startSlots, capLimit: fault.NoLimit}
	clear(s.active)
	s.bpScratch = s.bpScratch[:0]
	s.attempts.reset()
	s.recs.reset()
	if ramp {
		// One series, scheduled before any fault: its sequence numbers
		// precede theirs, so a fault step landing on a multiple of
		// SlotRampInterval fires after the ramp step of the same instant.
		s.sim.AtSeriesOp(cfg.Slots-cfg.InitialSlots, cfg.SlotRampInterval, s, opRamp, int32(cfg.InitialSlots))
	}
}

// reserve sizes the slot pool's wait queue, the attempt slab
// and the node-name table for the given number of jobs.
func (s *site) reserve(jobs int) {
	s.slots.Reserve(jobs)
	s.attempts.reserve(jobs)
	s.growNodeNames(min(jobs+1, s.cfg.Slots)) // attempt k lands on node k % Slots, from k = 1
}

// nodeName returns the label of node i, formatting it on first use.
func (s *site) nodeName(i int32) string {
	if int(i) >= len(s.nodeNames) {
		s.growNodeNames(min(max(int(i)+1, 2*len(s.nodeNames)), s.cfg.Slots))
	}
	if s.nodeNames[i] == "" {
		s.nodeNames[i] = formatNodeName(s.cfg.Name, i)
	}
	return s.nodeNames[i]
}

// growNodeNames lengthens the node-name table to at least n entries.
func (s *site) growNodeNames(n int) {
	if n > len(s.nodeNames) {
		s.nodeNames = append(s.nodeNames, make([]string, n-len(s.nodeNames))...)
	}
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

// The site's event operations. An attempt's events carry its slab
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

// HandleEvent implements des.Handler: every event the site schedules
// is one of the operations above.
func (s *site) HandleEvent(op, arg int32) {
	switch op {
	case opSubmit:
		s.dispatchAttempt(arg)
	case opDispatch:
		s.slots.AcquireOp(1, s, opGranted, arg)
	case opGranted:
		s.runOnNode(arg)
	case opEvicted:
		s.finishEvicted(arg, "slot reclaimed by resource owner")
	case opDone:
		s.finishDone(arg)
	case opRamp:
		s.setBaseCapacity(int(arg))
	case opCapLimit:
		s.setCapLimit(s.faults.Steps[arg].Limit)
	case opPreempt:
		s.preemptOccupied(s.faults.Preempts[arg].Fraction)
	}
}

// attempt is the state of one in-flight attempt, from submission to its
// terminal event: what the three closures of the callback formulation
// (dispatch delay, slot grant, done/evict) captured, and enough to finalize
// an evicted attempt's record the same way whether the hazard or a site
// fault took the slot. The kickstart record is built from it at the
// terminal event.
type attempt struct {
	job *planner.Job
	// submitTime is when the engine handed the attempt over; setupStart
	// when its slot was granted.
	submitTime, setupStart float64
	setupDur, nodeSpeed    float64
	attempt                int32
	// member is the tag the attempt was submitted under (Executor.SubmitFor).
	member int32
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
// Not inlined, so alloc holds no allocation site.
//
//go:noinline
func (s *attemptSlab) extend() int32 {
	if len(s.recs) == cap(s.recs) {
		s.reserve(len(s.recs) + 8)
	}
	s.recs = append(s.recs, attempt{})
	return int32(len(s.recs) - 1)
}

// reset empties the slab, keeping its storage.
func (s *attemptSlab) reset() {
	clear(s.recs)
	s.recs = s.recs[:0]
	s.free = -1
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

// installFaults arms the site with its compiled fault timeline, scheduling
// its capacity steps and correlated preemptions as simulation events.
func (s *site) installFaults(tl *fault.Timeline) {
	s.faults = tl
	if s.active == nil {
		s.active = make(map[int32]occupied)
	}
	for i, st := range tl.Steps {
		s.sim.AtOp(des.Time(st.At), s, opCapLimit, int32(i))
	}
	for i, p := range tl.Preempts {
		s.sim.AtOp(des.Time(p.At), s, opPreempt, int32(i))
	}
}

// setBaseCapacity updates the ramp-managed capacity.
func (s *site) setBaseCapacity(c int) {
	s.capBase = c
	s.applyCapacity()
}

// setCapLimit updates the fault-imposed limit, tracking outage intervals
// (limit at zero) for the downtime accounting.
func (s *site) setCapLimit(limit int) {
	wasDown := s.capLimit == 0
	s.capLimit = limit
	if limit == 0 && !wasDown {
		s.outages++
		s.downSince = s.now()
	} else if limit != 0 && wasDown {
		s.downSeconds += s.now() - s.downSince
	}
	s.applyCapacity()
}

func (s *site) applyCapacity() {
	eff := s.capBase
	if s.capLimit < eff {
		eff = s.capLimit
	}
	s.slots.SetCapacity(eff)
}

// preemptOccupied evicts each occupied-slot attempt independently with
// the given probability (1 = all). Attempts are visited in admission
// order so the draw sequence — and therefore the output — is fully
// deterministic.
func (s *site) preemptOccupied(fraction float64) {
	if len(s.active) == 0 {
		return
	}
	type victim struct {
		occupied
		idx int32
	}
	victims := make([]victim, 0, len(s.active))
	for idx, o := range s.active {
		victims = append(victims, victim{o, idx})
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].seq < victims[j].seq })
	for _, v := range victims {
		if fraction < 1 && s.frng.Float64() >= fraction {
			continue
		}
		s.sim.Cancel(v.done)
		s.finishEvicted(v.idx, "slot lost to site fault")
	}
}

// retire ends attempt idx: its record leaves the active map and the slab,
// which clears it, so it is returned by value.
func (s *site) retire(idx int32) attempt {
	a := s.attempts.recs[idx]
	s.attempts.release(idx)
	if s.faults != nil {
		delete(s.active, idx)
	}
	return a
}

// newRecord starts the kickstart record of a terminated attempt.
func (s *site) newRecord(a *attempt) *kickstart.Record {
	rec := s.recs.alloc()
	*rec = kickstart.Record{
		JobID:          a.job.ID,
		Transformation: a.job.Transformation,
		Site:           s.cfg.Name,
		Node:           s.nodeName(a.node),
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
// queues the eviction event — shared by hazard evictions and correlated
// fault preemptions.
func (s *site) finishEvicted(idx int32, msg string) {
	a := s.retire(idx)
	end := s.now()
	rec := s.newRecord(&a)
	rec.ExecStart = a.setupStart + a.setupDur
	if rec.ExecStart > end {
		rec.ExecStart = end // evicted during setup
	}
	rec.EndTime = end
	rec.Status = kickstart.StatusEvicted
	rec.ExitMessage = msg
	s.slots.Release(1)
	s.deliver(&a, engine.Event{
		JobID: a.job.ID, Pos: a.job.Pos(), Type: engine.EventEvicted, Time: end, Record: rec,
	})
}

// finishDone is the terminal event of an attempt that ran to completion.
func (s *site) finishDone(idx int32) {
	a := s.retire(idx)
	end := s.now()
	s.slots.Release(1)
	if len(a.job.Members) > 0 {
		s.deliver(&a, engine.Event{
			JobID: a.job.ID, Pos: a.job.Pos(), Type: engine.EventFinished, Time: end,
			Members: s.memberRecords(&a, end),
		})
		return
	}
	rec := s.newRecord(&a)
	rec.ExecStart = a.setupStart + a.setupDur
	rec.EndTime = end
	rec.Status = kickstart.StatusSuccess
	s.deliver(&a, engine.Event{
		JobID: a.job.ID, Pos: a.job.Pos(), Type: engine.EventFinished, Time: end, Record: rec,
	})
}

// deliver queues the terminal event of attempt a on the pool, under the
// attempt's member tag.
func (s *site) deliver(a *attempt, ev engine.Event) {
	s.pool.events.Push(delivery{member: a.member, ev: ev})
}

// usage reports the site's occupancy and outage accounting so far; an
// outage still in progress counts up to now.
func (s *site) usage() SiteUsage {
	down := s.downSeconds
	if s.capLimit == 0 {
		down += s.now() - s.downSince
	}
	return SiteUsage{
		Site:                s.cfg.Name,
		Slots:               s.cfg.Slots,
		MaxBusySlots:        s.slots.MaxInUse,
		BusySlotSeconds:     s.slots.BusySlotSeconds(),
		CapacitySlotSeconds: s.slots.CapacitySlotSeconds(),
		Outages:             s.outages,
		DowntimeSeconds:     down,
	}
}

// now returns the pool's virtual time in seconds.
func (s *site) now() float64 { return s.sim.Now().Seconds() }

// submit schedules the job attempt onto the site under the member tag.
func (s *site) submit(member int32, job *planner.Job, attempt int) {
	s.dispatchAttempt(s.newAttempt(job, attempt, member))
}

// newAttempt opens the record of one attempt.
func (s *site) newAttempt(job *planner.Job, attempt int, member int32) int32 {
	idx := s.attempts.alloc()
	a := &s.attempts.recs[idx]
	a.job, a.attempt, a.member = job, int32(attempt), member
	return idx
}

// dispatchAttempt passes the attempt through the submit host and schedules
// the end of its dispatch latency.
func (s *site) dispatchAttempt(idx int32) {
	now := s.now()
	// Serialize submissions through the submit host.
	release := now
	if s.nextFree > release {
		release = s.nextFree
	}
	s.nextFree = release + s.cfg.SubmitInterval

	s.attempts.recs[idx].submitTime = now
	delay := (release - now) + s.dispatch.Draw(s.dispatchDelay)
	if s.faults != nil {
		// A dispatch landing inside a blackout window is held until the
		// window ends — the scheduler simply stops matching jobs.
		land := s.faults.DelayThroughBlackouts(now + delay)
		delay = land - now
	}
	s.sim.AfterOp(delay, s, opDispatch, idx)
}

// runOnNode starts the setup and payload phases once a slot is granted,
// racing them against the platform's preemption hazard: it schedules the
// attempt's one terminal event.
func (s *site) runOnNode(idx int32) {
	a := &s.attempts.recs[idx] // nothing below submits, so a stays valid
	job := a.job
	a.setupStart = s.now()
	s.nodeSeq++
	a.node = int32(s.nodeSeq % s.cfg.Slots)

	a.nodeSpeed = s.cfg.SpeedFactor
	if s.cfg.SpeedJitter > 0 {
		a.nodeSpeed *= s.speed.Uniform(1-s.cfg.SpeedJitter, 1+s.cfg.SpeedJitter)
	}

	if job.NeedsInstall {
		// The install is paid once per grid job: a composite (clustered)
		// job stages its software stack a single time and all member
		// payloads share it — the amortization clustering buys.
		a.setupDur = s.setup.Draw(s.setupTime)
		if s.cfg.SetupBytesPerSec > 0 && job.InstallBytes > 0 {
			a.setupDur += float64(job.InstallBytes) / s.cfg.SetupBytesPerSec
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
	hazards := s.faults != nil && len(s.faults.Hazards) > 0
	if s.cfg.EvictionRate > 0 && !hazards {
		if tte := s.evict.Exponential(1 / s.cfg.EvictionRate); tte < total {
			op, after = opEvicted, tte
		}
	} else if hazards {
		if tte, ok := s.stormEvictionTime(a.setupStart, total); ok {
			op, after = opEvicted, tte
		}
	}
	done := s.sim.AfterOp(after, s, op, idx)
	if s.faults != nil {
		s.attemptSeq++
		s.active[idx] = occupied{seq: s.attemptSeq, done: done}
	}
}

// stormEvictionTime samples the attempt's time-to-eviction under the
// piecewise-constant hazard produced by storm windows: a single
// unit-exponential draw is inverted through the cumulative hazard over
// [start, start+total). Exactly one stream draw per attempt keeps the
// sequence aligned no matter how windows land, so output stays
// deterministic across worker counts.
func (s *site) stormEvictionTime(start, total float64) (float64, bool) {
	target := s.evict.Exponential(1)
	end := start + total
	s.bpScratch = s.faults.HazardBreakpoints(s.bpScratch[:0], start, end)
	bps := s.bpScratch
	t0 := start
	for i := 0; i <= len(bps); i++ {
		t1 := end
		if i < len(bps) {
			t1 = bps[i]
		}
		if h := s.faults.HazardAt(s.cfg.EvictionRate, t0); h > 0 {
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

// memberRecords builds the per-task kickstart records of one successful
// composite-job attempt. Member 0 carries the shared setup phase; each
// later member's waiting phase extends until the slot turned to it (it
// queued behind its siblings on the node) and its own setup is zero — the
// install was already paid. The last member is pinned to the composite's
// end time so the records and the engine event agree to the bit.
func (s *site) memberRecords(a *attempt, end float64) []*kickstart.Record {
	job, node := a.job, s.nodeName(a.node)
	out := make([]*kickstart.Record, 0, len(job.Members))
	t := a.setupStart + a.setupDur
	for i, m := range job.Members {
		start := t
		t += m.ExecSeconds * a.nodeSpeed
		rec := s.recs.alloc()
		*rec = kickstart.Record{
			JobID:          m.TaskID,
			Transformation: job.Transformation,
			Site:           s.cfg.Name,
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
