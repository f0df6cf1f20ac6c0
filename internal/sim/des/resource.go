package des

import "math"

// Resource models a counted resource (e.g. a pool of CPU slots) with a FIFO
// wait queue. Acquire requests that cannot be satisfied immediately are
// queued and granted, in order, as units are released. A request has no
// handle: once made, it waits until it is granted.
//
// The wait queue holds the requests by value, so steady-state
// acquire/grant cycles allocate nothing.
//
// A by-value copy would alias the wait queue; go vet flags it.
type Resource struct {
	_        noCopy
	sim      *Simulation
	capacity int
	inUse    int
	// queue is the FIFO wait queue; the live window is queue[whead:]. The
	// backing array is compacted once the granted prefix dominates,
	// keeping retention O(live) across arbitrarily long runs.
	queue []acquireReq
	whead int
	// Grants counts successful acquisitions, for tests and stats.
	Grants uint64
	// MaxInUse tracks the high-water mark of concurrently held units.
	MaxInUse int

	// lastAccount is the virtual time up to which the utilization
	// integrals have been accumulated.
	lastAccount Time
	busySeconds float64
	capSeconds  float64
}

// acquireReq is one waiting request: the grant event to deliver and the
// unit count.
type acquireReq struct {
	h   Handler
	op  int32
	arg int32
	n   int32
}

// NewResource creates a resource with the given capacity attached to sim.
func NewResource(sim *Simulation, capacity int) *Resource {
	r := new(Resource)
	r.Reset(sim, capacity)
	return r
}

// Reset makes r what NewResource(sim, capacity) returns — no units held,
// nothing waiting, every counter and integral at zero — keeping the storage
// of its wait queue. The requests still waiting are dropped ungranted.
func (r *Resource) Reset(sim *Simulation, capacity int) {
	if capacity < 0 {
		panic("des: negative resource capacity")
	}
	clear(r.queue)
	*r = Resource{sim: sim, capacity: capacity, queue: r.queue[:0]}
}

// Reserve makes room for n more simultaneously waiting requests (see
// Simulation.Reserve): a sizing hint, never a behaviour change.
func (r *Resource) Reserve(n int) { r.queue = reserve(r.queue, len(r.queue)+n) }

// account integrates units-in-use and capacity over virtual time up to
// now. It is called before every state change so the integrals are exact.
func (r *Resource) account() {
	now := r.sim.Now()
	dt := float64(now - r.lastAccount)
	if dt > 0 {
		r.busySeconds += float64(r.inUse) * dt
		r.capSeconds += float64(r.capacity) * dt
	}
	r.lastAccount = now
}

// BusySlotSeconds returns the time integral of units in use (slot·seconds
// of occupancy) up to the current virtual time.
func (r *Resource) BusySlotSeconds() float64 {
	r.account()
	return r.busySeconds
}

// CapacitySlotSeconds returns the time integral of capacity up to the
// current virtual time — the denominator of a utilization ratio under
// capacity ramps.
func (r *Resource) CapacitySlotSeconds() float64 {
	r.account()
	return r.capSeconds
}

// SetCapacity changes the capacity. Growing the pool wakes queued waiters.
// Shrinking below inUse is allowed: units already held remain held and the
// pool refuses new grants until enough are released.
func (r *Resource) SetCapacity(c int) {
	if c < 0 {
		panic("des: negative resource capacity")
	}
	r.account()
	r.capacity = c
	r.dispatch()
}

// Acquire requests n units. fn runs (as a scheduled event at the current
// time, never synchronously) once the units are granted.
func (r *Resource) Acquire(n int, fn func()) {
	r.AcquireOp(n, funcHandler(fn), 0, 0)
}

// AcquireOp requests n units; once they are granted, h.HandleEvent(op, arg)
// is delivered as a scheduled event at the current time, never
// synchronously.
func (r *Resource) AcquireOp(n int, h Handler, op, arg int32) {
	if n <= 0 || n > math.MaxInt32 {
		panic("des: acquire of non-positive or oversized unit count")
	}
	if h == nil {
		panic("des: acquire with nil handler")
	}
	r.enqueue(acquireReq{h: h, op: op, arg: arg, n: int32(n)})
	r.dispatch()
}

// enqueue appends a request to the wait queue.
func (r *Resource) enqueue(req acquireReq) {
	if len(r.queue) == cap(r.queue) {
		r.growQueue()
	}
	r.queue = append(r.queue, req)
}

// growQueue doubles the wait queue (not inlined: see Simulation.newSlot).
//
//go:noinline
func (r *Resource) growQueue() { r.queue = grown(r.queue) }

// Release returns n units to the pool, waking queued waiters.
func (r *Resource) Release(n int) {
	if n <= 0 {
		panic("des: release of non-positive unit count")
	}
	r.account()
	r.inUse -= n
	if r.inUse < 0 {
		panic("des: release of units never acquired")
	}
	r.dispatch()
}

// popHead drops the granted head request from the live window. Once the
// granted prefix dominates, it moves the live window to the front and
// clears the slots it vacates, so granted requests' handlers are not kept
// alive.
func (r *Resource) popHead() {
	r.whead++
	if r.whead > len(r.queue)/2 {
		n := copy(r.queue, r.queue[r.whead:])
		clear(r.queue[n:])
		r.queue = r.queue[:n]
		r.whead = 0
	}
}

// dispatch grants queued requests in FIFO order while units are available.
// FIFO means a large request at the head blocks smaller ones behind it,
// like a non-backfilling batch scheduler.
func (r *Resource) dispatch() {
	for r.whead < len(r.queue) {
		head := r.queue[r.whead]
		n := int(head.n)
		if r.inUse+n > r.capacity {
			return
		}
		r.popHead()
		r.account()
		r.inUse += n
		if r.inUse > r.MaxInUse {
			r.MaxInUse = r.inUse
		}
		r.Grants++
		r.sim.AfterOp(0, head.h, head.op, head.arg)
	}
}
