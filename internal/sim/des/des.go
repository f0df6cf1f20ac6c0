package des

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since the start of the
// simulation.
type Time float64

// Seconds returns the time as a float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) }

// String formats the time as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", float64(t)) }

// Handler receives events. An event is data — a handler plus two integers
// the handler interprets (an operation code and an argument, typically an
// index into a slab the handler owns) — so a model whose state lives in
// index-addressed records schedules without allocating: storing a pointer
// receiver in the interface costs nothing.
type Handler interface {
	HandleEvent(op, arg int32)
}

// funcHandler adapts a plain callback to Handler. A func value is
// pointer-shaped, so converting one to the interface does not allocate
// either: At, After and Acquire are this adapter over AtOp, AfterOp and
// AcquireOp, not a second kind of event.
type funcHandler func()

func (f funcHandler) HandleEvent(_, _ int32) { f() }

// EventID is a handle for a scheduled event, returned by the scheduling
// methods so callers can cancel or inspect the event later. The zero
// EventID is invalid and never matches a live event. Handles are
// generation-checked: once the event fires or is canceled its slot may be
// reused, and the old handle stops matching.
type EventID struct {
	slot int32
	gen  uint32
}

// event is one slab entry. Slots are reused; gen increments on every
// release so stale EventIDs cannot alias a later event in the same slot.
// (A slot's generation wraps after ~4 billion reuses; a collision would
// additionally need a caller holding a handle across that entire span.)
// The firing key (at, seq) lives in the heap entry, reached through hpos.
type event struct {
	h   Handler
	op  int32
	arg int32
	gen uint32
	// hpos is the index in the heap array while queued. A free slot holds
	// freeLink(next), the next free slot encoded as a negative number, so
	// any negative value means "not queued".
	hpos int32
}

// heapEntry is one queue position: the firing key inline, so sifting
// compares entries without touching the event slab, and four siblings of
// the 4-ary heap share a cache line.
type heapEntry struct {
	at   Time
	seq  uint32
	slot int32
}

// freeLink encodes a free-list link (a slot index, or -1 for the end of
// the list) as a negative number; it is its own inverse.
func freeLink(next int32) int32 { return -2 - next }

// before orders entries by (time, scheduling sequence). Sequence numbers
// are unique, so this is a strict total order and the firing order does not
// depend on the heap's shape.
func (a heapEntry) before(b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// noCopy makes `go vet` (copylocks) reject a by-value copy of any struct that
// holds it: the zero-size guard of this package's slab types.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Simulation is a discrete-event simulator instance.
//
// Copying a Simulation by value aliases the event arena, free list and
// heap between the copies; go vet flags any by-value copy.
type Simulation struct {
	_       noCopy
	now     Time
	events  []event     // slab arena; index = EventID.slot
	free    int32       // head of the free-slot list threaded through hpos; -1 when empty
	heap    []heapEntry // 4-ary heap ordered by (at, seq)
	seq     uint32
	stopped bool
	// processed counts events executed; useful for tests and loop guards.
	processed uint64
}

// New returns a simulation with the clock at zero.
func New() *Simulation {
	return &Simulation{free: -1}
}

// Now returns the current virtual time.
func (s *Simulation) Now() Time { return s.now }

// Processed returns the number of events executed so far.
func (s *Simulation) Processed() uint64 { return s.processed }

// Reserve makes room for n more simultaneously pending events, so a model
// that knows its size up front allocates the arena and the heap once
// instead of growing them. It is a sizing hint: results never depend on it.
func (s *Simulation) Reserve(n int) {
	n += len(s.heap)
	s.events = reserve(s.events, n)
	s.heap = reserve(s.heap, n)
}

// reserve returns sl with capacity for at least n elements, reallocating
// to exactly n when it has to.
func reserve[T any](sl []T, n int) []T {
	if n <= cap(sl) {
		return sl
	}
	out := make([]T, len(sl), n)
	copy(out, sl)
	return out
}

// grown returns a full sl with its capacity doubled. The slabs grow by
// doubling rather than by append: past 256 elements append grows 1.25× a
// step, which on a slab that only ever grows allocates about five times
// its final size.
func grown[T any](sl []T) []T { return reserve(sl, 2*cap(sl)+8) }

// AtOp schedules h.HandleEvent(op, arg) at absolute virtual time t.
// Scheduling in the past panics: it always indicates a model bug.
func (s *Simulation) AtOp(t Time, h Handler, op, arg int32) EventID {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", t, s.now))
	}
	if math.IsNaN(float64(t)) {
		panic("des: scheduling event at NaN time")
	}
	slot := s.free
	if slot >= 0 {
		s.free = freeLink(s.events[slot].hpos)
	} else {
		slot = s.newSlot()
	}
	e := &s.events[slot]
	e.h, e.op, e.arg = h, op, arg
	seq := s.seq
	s.seq++
	if s.seq == 0 {
		panic("des: event sequence overflow")
	}
	s.heapPush(heapEntry{at: t, seq: seq, slot: slot})
	return EventID{slot: slot, gen: e.gen}
}

// newSlot extends the arena by one slot. The growth paths are not inlined,
// so that the guarded hot functions (escapegate) hold no allocation site.
//
//go:noinline
func (s *Simulation) newSlot() int32 {
	if len(s.events) == cap(s.events) {
		s.events = grown(s.events)
	}
	s.events = append(s.events, event{gen: 1, hpos: -1})
	return int32(len(s.events) - 1)
}

// AfterOp schedules h.HandleEvent(op, arg) d seconds after the current
// time. Negative delays are clamped to zero.
func (s *Simulation) AfterOp(d float64, h Handler, op, arg int32) EventID {
	if d < 0 {
		d = 0
	}
	return s.AtOp(s.now+Time(d), h, op, arg)
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a model bug.
func (s *Simulation) At(t Time, fn func()) EventID {
	return s.AtOp(t, funcHandler(fn), 0, 0)
}

// After schedules fn to run d seconds after the current time. Negative
// delays are clamped to zero.
func (s *Simulation) After(d float64, fn func()) EventID {
	return s.AfterOp(d, funcHandler(fn), 0, 0)
}

// lookup resolves a handle to its live slab entry, or nil when the handle
// is stale (event fired, canceled, or never existed).
func (s *Simulation) lookup(id EventID) *event {
	if id.slot < 0 || int(id.slot) >= len(s.events) {
		return nil
	}
	e := &s.events[id.slot]
	if e.gen != id.gen || e.hpos < 0 {
		return nil
	}
	return e
}

// Cancel withdraws a pending event in O(log n), removing it from the queue
// and recycling its slot. Canceling an already-fired, already-canceled or
// zero handle is a no-op.
func (s *Simulation) Cancel(id EventID) {
	e := s.lookup(id)
	if e == nil {
		return
	}
	s.heapRemove(e.hpos)
	s.release(id.slot)
}

// Live reports whether the handle's event is still scheduled (not yet
// fired and not canceled).
func (s *Simulation) Live(id EventID) bool { return s.lookup(id) != nil }

// EventTime returns the virtual time at which the handle's event will fire.
// The second result is false when the handle is stale.
func (s *Simulation) EventTime(id EventID) (Time, bool) {
	e := s.lookup(id)
	if e == nil {
		return 0, false
	}
	return s.heap[e.hpos].at, true
}

// release recycles an arena slot after its event fired or was canceled.
func (s *Simulation) release(slot int32) {
	e := &s.events[slot]
	e.h = nil
	e.gen++
	e.hpos = freeLink(s.free)
	s.free = slot
}

// Stop makes Run return after the currently executing event completes.
func (s *Simulation) Stop() { s.stopped = true }

// Pending returns the number of events waiting in the queue.
func (s *Simulation) Pending() int { return len(s.heap) }

// Step executes the single next event, advancing the clock to its time. It
// returns false when no events remain.
func (s *Simulation) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	top := s.heap[0]
	s.heapRemove(0)
	e := &s.events[top.slot]
	s.now = top.at
	s.processed++
	h, op, arg := e.h, e.op, e.arg
	// Release before dispatching: the handler may schedule new events and
	// is allowed to reuse this slot immediately.
	s.release(top.slot)
	h.HandleEvent(op, arg)
	return true
}

// Run executes events until the queue is empty or Stop is called.
func (s *Simulation) Run() {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
}

// RunUntil executes events with time ≤ t, then advances the clock to t.
// Events scheduled exactly at t are executed.
func (s *Simulation) RunUntil(t Time) {
	s.stopped = false
	for !s.stopped {
		if len(s.heap) == 0 || s.heap[0].at > t {
			break
		}
		s.Step()
	}
	if !s.stopped && t > s.now {
		s.now = t
	}
}

// --- indexed 4-ary heap of inline keys ---
//
// Sifts move a hole: the entry being placed is held in a register while
// entries on its path shift one level, and it is written once at the end.
// The event slab is touched only to record each moved entry's new hpos.

func (s *Simulation) heapPush(ent heapEntry) {
	if len(s.heap) == cap(s.heap) {
		s.growHeap()
	}
	s.heap = append(s.heap, ent)
	s.siftUp(int32(len(s.heap)-1), ent)
}

//go:noinline
func (s *Simulation) growHeap() { s.heap = grown(s.heap) }

// heapRemove deletes the entry at heap position i, restoring heap order.
// The removed event's hpos is left for release to overwrite.
func (s *Simulation) heapRemove(i int32) {
	last := int32(len(s.heap) - 1)
	ent := s.heap[last]
	s.heap = s.heap[:last]
	if i == last {
		return
	}
	if i > 0 && ent.before(s.heap[(i-1)/4]) {
		s.siftUp(i, ent)
		return
	}
	s.siftDown(i, ent)
}

// siftUp places ent at or above the hole at position i.
func (s *Simulation) siftUp(i int32, ent heapEntry) {
	for i > 0 {
		parent := (i - 1) / 4
		p := s.heap[parent]
		if !ent.before(p) {
			break
		}
		s.heap[i] = p
		s.events[p.slot].hpos = i
		i = parent
	}
	s.heap[i] = ent
	s.events[ent.slot].hpos = i
}

// siftDown places ent at or below the hole at position i.
func (s *Simulation) siftDown(i int32, ent heapEntry) {
	n := int32(len(s.heap))
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		end := first + 4
		if end > n {
			end = n
		}
		min := first
		m := s.heap[first]
		for c := first + 1; c < end; c++ {
			if e := s.heap[c]; e.before(m) {
				min, m = c, e
			}
		}
		if !m.before(ent) {
			break
		}
		s.heap[i] = m
		s.events[m.slot].hpos = i
		i = min
	}
	s.heap[i] = ent
	s.events[ent.slot].hpos = i
}
