package des

import "math"

// Resource models a counted resource (e.g. a pool of CPU slots) with a FIFO
// wait queue. Acquire requests that cannot be satisfied immediately are
// queued and granted, in order, as units are released.
//
// Requests live by value in a slab arena with a free list, mirroring the
// kernel's event storage: the FIFO queue holds arena slot numbers, callers
// hold generation-checked Acquisition handles, and steady-state
// acquire/grant cycles allocate nothing.
//
// A by-value copy would alias the request arena and free list; go vet
// flags it.
type Resource struct {
	_        noCopy
	sim      *Simulation
	capacity int
	inUse    int
	// reqs is the request arena; slots are recycled through the freeReq
	// list and generation-checked so stale Acquisition handles are no-ops.
	reqs    []acquireReq
	freeReq int32 // head of the free-slot list threaded through acquireReq.n; -1 when empty
	// queue is the FIFO wait queue of arena slots; the live window is
	// queue[whead:]. The backing array is compacted once the dead prefix
	// or canceled entries dominate, keeping retention O(live) across
	// arbitrarily long runs.
	queue []int32
	whead int
	// canceled counts canceled requests still inside the live window.
	canceled int
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

// acquireReq is one request: the grant event to deliver and the unit
// count. A canceled request still in the queue has a nil handler; a free
// slot holds the next free slot (or -1) in n.
type acquireReq struct {
	h   Handler
	op  int32
	arg int32
	n   int32
	gen uint32
}

// Acquisition is a handle for a pending resource request; Cancel withdraws
// it if it has not yet been granted. The zero Acquisition is inert.
type Acquisition struct {
	r    *Resource
	slot int32
	gen  uint32
}

// Cancel withdraws a pending request in O(1); the queue entry is discarded
// when it reaches the head or at the next compaction. It is a no-op after
// the grant fired (the generation check catches recycled slots).
func (a Acquisition) Cancel() {
	if a.r == nil {
		return
	}
	req := &a.r.reqs[a.slot]
	if req.gen != a.gen || req.h == nil {
		return
	}
	req.h = nil
	a.r.canceled++
	a.r.maybeCompact()
}

// NewResource creates a resource with the given capacity attached to sim.
func NewResource(sim *Simulation, capacity int) *Resource {
	if capacity < 0 {
		panic("des: negative resource capacity")
	}
	return &Resource{sim: sim, capacity: capacity, freeReq: -1}
}

// Reserve makes room for n more simultaneously waiting requests (see
// Simulation.Reserve): a sizing hint, never a behaviour change.
func (r *Resource) Reserve(n int) {
	n += len(r.queue) - r.whead
	r.reqs = reserve(r.reqs, n)
	r.queue = reserve(r.queue, r.whead+n)
}

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

// Capacity returns the total number of units.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// Available returns the number of free units.
func (r *Resource) Available() int { return r.capacity - r.inUse }

// QueueLen returns the number of pending (non-canceled) requests.
func (r *Resource) QueueLen() int {
	return len(r.queue) - r.whead - r.canceled
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
func (r *Resource) Acquire(n int, fn func()) Acquisition {
	return r.AcquireOp(n, funcHandler(fn), 0, 0)
}

// AcquireOp requests n units; once they are granted, h.HandleEvent(op, arg)
// is delivered as a scheduled event at the current time, never
// synchronously.
func (r *Resource) AcquireOp(n int, h Handler, op, arg int32) Acquisition {
	if n <= 0 || n > math.MaxInt32 {
		panic("des: acquire of non-positive or oversized unit count")
	}
	if h == nil {
		panic("des: acquire with nil handler")
	}
	slot := r.freeReq
	if slot >= 0 {
		r.freeReq = r.reqs[slot].n
	} else {
		slot = r.newReq()
	}
	req := &r.reqs[slot]
	req.h, req.op, req.arg, req.n = h, op, arg, int32(n)
	gen := req.gen
	r.enqueue(slot)
	r.dispatch()
	return Acquisition{r: r, slot: slot, gen: gen}
}

// newReq extends the request arena by one slot (not inlined: see
// Simulation.newSlot).
//
//go:noinline
func (r *Resource) newReq() int32 {
	if len(r.reqs) == cap(r.reqs) {
		r.reqs = grown(r.reqs)
	}
	r.reqs = append(r.reqs, acquireReq{gen: 1})
	return int32(len(r.reqs) - 1)
}

// enqueue appends a request slot to the wait queue.
func (r *Resource) enqueue(slot int32) {
	if len(r.queue) == cap(r.queue) {
		r.growQueue()
	}
	r.queue = append(r.queue, slot)
}

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

// releaseReq recycles a request slot once it leaves the queue (granted or
// canceled-and-discarded), invalidating outstanding handles.
func (r *Resource) releaseReq(slot int32) {
	req := &r.reqs[slot]
	req.h = nil
	req.gen++
	req.n = r.freeReq
	r.freeReq = slot
}

// popHead drops the current head request from the live window.
func (r *Resource) popHead() {
	r.whead++
	r.maybeCompact()
}

// maybeCompact rewrites the queue's backing array once the dead prefix or
// canceled mid-queue entries dominate the live requests, preserving FIFO
// order and recycling the slots of discarded canceled entries.
func (r *Resource) maybeCompact() {
	live := len(r.queue) - r.whead
	if live == 0 {
		r.queue = r.queue[:0]
		r.whead = 0
		r.canceled = 0
		return
	}
	if r.whead <= len(r.queue)/2 && r.canceled <= live/2 {
		return
	}
	out := r.queue[:0]
	for _, slot := range r.queue[r.whead:] {
		if r.reqs[slot].h == nil {
			r.releaseReq(slot)
			continue
		}
		out = append(out, slot)
	}
	r.queue = out
	r.whead = 0
	r.canceled = 0
}

// dispatch grants queued requests in FIFO order while units are available.
// FIFO means a large request at the head blocks smaller ones behind it,
// like a non-backfilling batch scheduler.
func (r *Resource) dispatch() {
	for r.whead < len(r.queue) {
		slot := r.queue[r.whead]
		head := &r.reqs[slot]
		if head.h == nil {
			r.canceled--
			r.popHead()
			r.releaseReq(slot)
			continue
		}
		n := int(head.n)
		if r.inUse+n > r.capacity {
			return
		}
		h, op, arg := head.h, head.op, head.arg
		r.popHead()
		r.releaseReq(slot)
		r.account()
		r.inUse += n
		if r.inUse > r.MaxInUse {
			r.MaxInUse = r.inUse
		}
		r.Grants++
		r.sim.AfterOp(0, h, op, arg)
	}
}
