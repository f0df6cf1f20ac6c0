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

// EventID is a handle for a scheduled callback, returned by the scheduling
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
type event struct {
	at   Time
	seq  uint64
	fn   func()
	gen  uint32
	hpos int32 // index in the heap array; -1 when not queued
}

// Simulation is a discrete-event simulator instance.
//
// Copying a Simulation by value aliases the event arena, free list and
// heap between the copies; pegflow-lint's slabcopy analyzer flags any
// by-value copy.
//
//pegflow:slab
type Simulation struct {
	now     Time
	events  []event // slab arena; index = EventID.slot
	free    []int32 // recycled arena slots
	heap    []int32 // binary heap of arena slots, ordered by (at, seq)
	seq     uint64
	stopped bool
	// processed counts events executed; useful for tests and loop guards.
	processed uint64
}

// New returns a simulation with the clock at zero.
func New() *Simulation {
	return &Simulation{}
}

// Now returns the current virtual time.
func (s *Simulation) Now() Time { return s.now }

// Processed returns the number of events executed so far.
func (s *Simulation) Processed() uint64 { return s.processed }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a model bug.
func (s *Simulation) At(t Time, fn func()) EventID {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", t, s.now))
	}
	if math.IsNaN(float64(t)) {
		panic("des: scheduling event at NaN time")
	}
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.events = append(s.events, event{gen: 1})
		slot = int32(len(s.events) - 1)
	}
	e := &s.events[slot]
	e.at, e.seq, e.fn = t, s.seq, fn
	s.seq++
	s.heapPush(slot)
	return EventID{slot: slot, gen: e.gen}
}

// After schedules fn to run d seconds after the current time. Negative
// delays are clamped to zero.
func (s *Simulation) After(d float64, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+Time(d), fn)
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
	return e.at, true
}

// release recycles an arena slot after its event fired or was canceled.
func (s *Simulation) release(slot int32) {
	e := &s.events[slot]
	e.fn = nil
	e.gen++
	e.hpos = -1
	s.free = append(s.free, slot)
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
	slot := s.heap[0]
	s.heapRemove(0)
	e := &s.events[slot]
	s.now = e.at
	s.processed++
	fn := e.fn
	// Release before running fn: the callback may schedule new events and
	// is allowed to reuse this slot immediately.
	s.release(slot)
	fn()
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
		if len(s.heap) == 0 || s.events[s.heap[0]].at > t {
			break
		}
		s.Step()
	}
	if !s.stopped && t > s.now {
		s.now = t
	}
}

// --- indexed binary heap over arena slots ---

// less orders heap entries by (time, scheduling sequence).
func (s *Simulation) less(a, b int32) bool {
	ea, eb := &s.events[a], &s.events[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

func (s *Simulation) heapPush(slot int32) {
	s.heap = append(s.heap, slot)
	i := int32(len(s.heap) - 1)
	s.events[slot].hpos = i
	s.siftUp(i)
}

// heapRemove deletes the entry at heap position i, restoring heap order.
func (s *Simulation) heapRemove(i int32) {
	last := int32(len(s.heap) - 1)
	s.events[s.heap[i]].hpos = -1
	if i != last {
		moved := s.heap[last]
		s.heap[i] = moved
		s.events[moved].hpos = i
		s.heap = s.heap[:last]
		if !s.siftDown(i) {
			s.siftUp(i)
		}
		return
	}
	s.heap = s.heap[:last]
}

func (s *Simulation) siftUp(i int32) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(s.heap[i], s.heap[parent]) {
			return
		}
		s.heapSwap(i, parent)
		i = parent
	}
}

// siftDown restores heap order below i, reporting whether anything moved.
func (s *Simulation) siftDown(i int32) bool {
	moved := false
	n := int32(len(s.heap))
	for {
		left := 2*i + 1
		if left >= n {
			return moved
		}
		smallest := left
		if right := left + 1; right < n && s.less(s.heap[right], s.heap[left]) {
			smallest = right
		}
		if !s.less(s.heap[smallest], s.heap[i]) {
			return moved
		}
		s.heapSwap(i, smallest)
		i = smallest
		moved = true
	}
}

func (s *Simulation) heapSwap(i, j int32) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.events[s.heap[i]].hpos = i
	s.events[s.heap[j]].hpos = j
}
