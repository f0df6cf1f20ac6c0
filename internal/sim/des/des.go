package des

import (
	"fmt"
	"math"
	"math/bits"
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

// event is one slab entry. Slots are reused; gen increments when the event
// fires or is canceled, so stale EventIDs cannot alias a later event in the
// same slot. (A slot's generation wraps after ~4 billion reuses; a
// collision would additionally need a caller holding a handle across that
// entire span.) A nil h marks a slot that holds no live event: free, fired,
// or canceled and still queued (a tombstone). The firing key (at, seq) of
// a heap event lives in its heap entry; a lane event's key is implied.
type event struct {
	h   Handler
	op  int32
	arg int32
	gen uint32
	// next links the slot into a list, -1 ending it: the lane while the
	// event waits there, the free list while the slot is free.
	next int32
}

// heapEntry is one heap position: the firing key inline, so sifting
// compares entries without touching the event slab, and four siblings of
// the 4-ary heap share a cache line. slot is the event's arena slot; a
// series keeps the key of its next firing in a heapEntry of its own, whose
// slot is unused.
type heapEntry struct {
	at   Time
	seq  uint32
	slot int32
}

// before orders entries by (time, scheduling sequence). Sequence numbers
// are unique, so this is a strict total order and the firing order does not
// depend on the heap's shape.
func (a heapEntry) before(b heapEntry) bool { return less(a, b) == 1 }

// less is 1 when a fires before b and 0 otherwise, computed without a
// branch: (at, seq) is compared as one 96-bit unsigned key, at's bits
// above seq's, by two borrows. The bits of a non-negative float64 order as
// its value does (+Inf last), and every queued time is non-negative — a
// time is never before now, now starts at +0, and AtOp turns -0 into +0.
func less(a, b heapEntry) uint64 {
	_, borrow := bits.Sub64(uint64(a.seq), uint64(b.seq), 0)
	_, borrow = bits.Sub64(math.Float64bits(float64(a.at)), math.Float64bits(float64(b.at)), borrow)
	return borrow
}

// series is one periodic series of AtSeriesOp: its k-th firing delivers
// h.HandleEvent(op, arg0+k) at Time(float64(k)*dt), for k up to n. next is
// the key of the k-th firing; a nil h marks a retired record.
type series struct {
	h        Handler
	dt       float64
	next     heapEntry
	op, arg0 int32
	k, n     int32
}

// noCopy makes `go vet` (copylocks) reject a by-value copy of any struct that
// holds it: the zero-size guard of this package's slab types.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Simulation is a discrete-event simulator instance.
//
// Events are taken from three sources in one (at, seq) order: the lane, a
// FIFO of the events scheduled for the current instant; a 4-ary heap of the
// other one-off events; and the periodic series, each keeping the key of
// its next firing in its own record. An event put in the lane at time t was
// scheduled with the clock at t, after every heap entry and series firing
// due at t (those were scheduled earlier: a series starts after the instant
// it is created at), so the earlier of the heap top and the earliest series
// goes first when it is due now and the lane head goes first otherwise.
//
// Copying a Simulation by value aliases the event arena, free list and
// heap between the copies; go vet flags any by-value copy.
type Simulation struct {
	_      noCopy
	now    Time
	events []event     // slab arena; index = EventID.slot
	free   int32       // head of the free-slot list threaded through event.next; -1 when empty
	heap   []heapEntry // 4-ary heap ordered by (at, seq)
	// laneHead and laneTail are the ends of the lane, threaded through
	// event.next; laneHead is -1 when it is empty (laneTail is then stale).
	laneHead, laneTail int32
	// series holds the series, retired ones included; freeSeries heads
	// the list of retired ones, threaded through series.k; -1 when empty.
	// nextSeries is the live series that fires first; -1 when none is live.
	series     []series
	freeSeries int32
	nextSeries int32
	seq        uint32
	// pending counts the live events; dead the canceled ones still queued.
	pending, dead int
	// processed counts events executed; useful for tests and loop guards.
	processed uint64
}

// New returns a simulation with the clock at zero.
func New() *Simulation {
	s := new(Simulation)
	s.Reset()
	return s
}

// Reset empties the simulation and rewinds its clock to zero, keeping the
// storage of its arena, heap and series: a reset simulation fires exactly
// what a New one given the same calls fires, in the same order and with the
// same handles, and allocates only where it outgrows what it held. Every
// pending event is dropped unfired, and the handlers it held are cleared so
// that nothing they reference is kept alive.
func (s *Simulation) Reset() {
	clear(s.events)
	clear(s.series)
	*s = Simulation{
		events:     s.events[:0],
		free:       -1,
		heap:       s.heap[:0],
		laneHead:   -1,
		laneTail:   -1,
		series:     s.series[:0],
		freeSeries: -1,
		nextSeries: -1,
	}
}

// Now returns the current virtual time.
func (s *Simulation) Now() Time { return s.now }

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
// Scheduling in the past panics: it always indicates a model bug. A time of
// -0 is +0.
func (s *Simulation) AtOp(t Time, h Handler, op, arg int32) EventID {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", t, s.now))
	}
	if math.IsNaN(float64(t)) {
		panic("des: scheduling event at NaN time")
	}
	if t == 0 {
		t = 0 // -0's sign bit would order it after +Inf in less
	}
	if h == nil {
		panic("des: scheduling a nil handler")
	}
	slot := s.free
	if slot >= 0 {
		s.free = s.events[slot].next
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
	s.pending++
	if t == s.now {
		s.lanePush(slot)
	} else {
		s.heapPush(heapEntry{at: t, seq: seq, slot: slot})
	}
	return EventID{slot: slot, gen: e.gen}
}

// newSlot extends the arena by one slot. The growth paths are not inlined,
// so the hot functions that call them hold no allocation site.
//
//go:noinline
func (s *Simulation) newSlot() int32 {
	if len(s.events) == cap(s.events) {
		s.events = grown(s.events)
	}
	s.events = append(s.events, event{gen: 1, next: -1})
	return int32(len(s.events) - 1)
}

// lanePush appends a slot to the lane.
func (s *Simulation) lanePush(slot int32) {
	s.events[slot].next = -1
	if s.laneHead < 0 {
		s.laneHead = slot
	} else {
		s.events[s.laneTail].next = slot
	}
	s.laneTail = slot
}

// AtSeriesOp schedules a periodic series: h.HandleEvent(op, arg0+k) at
// Time(float64(k)*dt) for k = 1…n. The series is one record, not n queue
// entries, and takes n consecutive sequence numbers now, so it fires
// exactly as n AtOp calls made at this point would. Its first firing must
// lie after the current time; a series has no handle and cannot be
// canceled. A non-positive n schedules nothing.
func (s *Simulation) AtSeriesOp(n int, dt float64, h Handler, op, arg0 int32) {
	if n <= 0 {
		return
	}
	if !(Time(dt) > s.now) {
		panic(fmt.Sprintf("des: series first firing at %v is not after now %v", Time(dt), s.now))
	}
	if h == nil {
		panic("des: scheduling a nil handler")
	}
	if n > math.MaxInt32-int(max(arg0, 0)) {
		panic("des: series argument overflow")
	}
	if uint64(s.seq)+uint64(n) > math.MaxUint32 {
		panic("des: event sequence overflow")
	}
	i := s.freeSeries
	if i >= 0 {
		s.freeSeries = s.series[i].k
	} else {
		i = s.addSeries()
	}
	next := heapEntry{at: Time(dt), seq: s.seq}
	s.series[i] = series{h: h, dt: dt, next: next, op: op, arg0: arg0, k: 1, n: int32(n)}
	if s.nextSeries < 0 || next.before(s.series[s.nextSeries].next) {
		s.nextSeries = i
	}
	s.seq += uint32(n)
	s.pending += n
}

// addSeries appends a series record (not inlined: see newSlot).
//
//go:noinline
func (s *Simulation) addSeries() int32 {
	s.series = append(s.series, series{})
	return int32(len(s.series) - 1)
}

// AfterOp schedules h.HandleEvent(op, arg) d seconds after the current
// time. Negative delays are clamped to zero.
func (s *Simulation) AfterOp(d float64, h Handler, op, arg int32) EventID {
	if d < 0 {
		d = 0
	}
	return s.AtOp(s.now+Time(d), h, op, arg)
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
	if e.gen != id.gen || e.h == nil {
		return nil
	}
	return e
}

// Cancel withdraws a pending event in O(1) amortized. The event's slot
// becomes a tombstone, dropped when it reaches the front of the queue or
// when tombstones outnumber live events, whichever comes first. Canceling
// an already-fired, already-canceled or zero handle is a no-op.
func (s *Simulation) Cancel(id EventID) {
	e := s.lookup(id)
	if e == nil {
		return
	}
	e.h = nil
	e.gen++
	s.pending--
	if s.dead++; s.dead > s.pending {
		s.compact()
	}
}

// release recycles an arena slot after its event fired.
func (s *Simulation) release(slot int32) {
	e := &s.events[slot]
	e.h = nil
	e.gen++
	s.freeSlot(slot)
}

// freeSlot puts a slot whose event is gone on the free list.
func (s *Simulation) freeSlot(slot int32) {
	s.events[slot].next = s.free
	s.free = slot
}

// The sources of the queue, as front reports them.
const (
	srcNone = iota
	srcLane
	srcHeap
	srcSeries
)

// front drops tombstones from the front of the queue and returns the next
// live entry and its source; a lane entry's time is now. src is srcNone
// when nothing is pending.
func (s *Simulation) front() (ent heapEntry, src int) {
	for {
		ent, src = heapEntry{}, srcNone
		if len(s.heap) > 0 {
			ent, src = s.heap[0], srcHeap
		}
		if s.nextSeries >= 0 {
			if next := s.series[s.nextSeries].next; src == srcNone || next.before(ent) {
				ent, src = next, srcSeries
			}
		}
		if s.laneHead >= 0 && (src == srcNone || ent.at > s.now) {
			slot := s.laneHead
			if s.events[slot].h != nil {
				return heapEntry{at: s.now, slot: slot}, srcLane
			}
			s.laneHead = s.events[slot].next
			s.dead--
			s.freeSlot(slot)
			continue
		}
		if src != srcHeap || s.events[ent.slot].h != nil {
			return ent, src
		}
		s.heapPop()
		s.dead--
		s.freeSlot(ent.slot)
	}
}

// Step executes the single next event, advancing the clock to its time. It
// returns false when no events remain.
func (s *Simulation) Step() bool {
	ent, src := s.front()
	switch src {
	case srcNone:
		return false
	case srcLane:
		s.laneHead = s.events[ent.slot].next
	case srcHeap:
		s.heapPop()
	}
	s.now = ent.at
	s.processed++
	s.pending--
	if src == srcSeries {
		s.stepSeries(s.nextSeries)
		return true
	}
	e := &s.events[ent.slot]
	h, op, arg := e.h, e.op, e.arg
	// Release before dispatching: the handler may schedule new events and
	// is allowed to reuse this slot immediately.
	s.release(ent.slot)
	h.HandleEvent(op, arg)
	return true
}

// stepSeries fires series i, the earliest, first moving its key on to its
// next firing or retiring it, and finding the earliest series again: a scan
// of the series records, of which a model keeps a few (one per ramping
// site).
func (s *Simulation) stepSeries(i int32) {
	sr := &s.series[i]
	h, op, arg := sr.h, sr.op, sr.arg0+sr.k
	if sr.k < sr.n {
		sr.k++
		sr.next.at = Time(float64(sr.k) * sr.dt)
		sr.next.seq++
	} else {
		*sr = series{k: s.freeSeries}
		s.freeSeries = i
	}
	s.nextSeries = -1
	for j := range s.series {
		if r := &s.series[j]; r.h != nil && (s.nextSeries < 0 || r.next.before(s.series[s.nextSeries].next)) {
			s.nextSeries = int32(j)
		}
	}
	h.HandleEvent(op, arg)
}

// compact drops every tombstone from the heap and the lane, recycling their
// slots. The heap is rebuilt in place; the lane keeps its order.
func (s *Simulation) compact() {
	live := s.heap[:0]
	for _, ent := range s.heap {
		if s.events[ent.slot].h == nil {
			s.freeSlot(ent.slot)
			continue
		}
		live = append(live, ent)
	}
	s.heap = live
	for i := (int32(len(live)) - 2) / 4; i >= 0 && len(live) > 1; i-- {
		s.sink(i, live[i])
	}
	slot := s.laneHead
	s.laneHead = -1
	for slot >= 0 {
		next := s.events[slot].next
		if s.events[slot].h == nil {
			s.freeSlot(slot)
		} else {
			s.lanePush(slot)
		}
		slot = next
	}
	s.dead = 0
}

// --- 4-ary heap of inline keys ---
//
// Sifts move a hole: the entry being placed is held in a register while
// entries on its path shift one level, and it is written once at the end.
// Removal is bottom-up: the hole left at the top walks down the smaller
// child to a leaf, and the entry to place sifts up from there — it almost
// always belongs near the bottom, so this saves the comparisons a
// top-down sift spends on it at every level.

func (s *Simulation) heapPush(ent heapEntry) {
	if len(s.heap) == cap(s.heap) {
		s.growHeap()
	}
	s.heap = append(s.heap, ent)
	s.siftUp(int32(len(s.heap)-1), 0, ent)
}

//go:noinline
func (s *Simulation) growHeap() { s.heap = grown(s.heap) }

// heapPop removes the top entry.
func (s *Simulation) heapPop() {
	last := len(s.heap) - 1
	ent := s.heap[last]
	s.heap = s.heap[:last]
	if last > 0 {
		s.sink(0, ent)
	}
}

// siftUp places ent at or above the hole at position i, but not above
// position root.
func (s *Simulation) siftUp(i, root int32, ent heapEntry) {
	for i > root {
		parent := (i - 1) / 4
		p := s.heap[parent]
		if !ent.before(p) {
			break
		}
		s.heap[i] = p
		i = parent
	}
	s.heap[i] = ent
}

// sink places ent in the subtree of the hole at position i: the hole walks
// down to a leaf, and ent sifts up from there. A node with four children
// picks the least without a branch — on random keys which child wins is a
// coin toss the branch predictor loses — and only the one node with fewer
// children loops.
func (s *Simulation) sink(i int32, ent heapEntry) {
	root, n := i, int32(len(s.heap))
	for {
		first := 4*i + 1
		if first+4 > n {
			break
		}
		c := (*[4]heapEntry)(s.heap[first:])
		a := less(c[1], c[0])
		b := 2 + less(c[3], c[2])
		min := (a + (b-a)*less(c[b&3], c[a&3])) & 3
		s.heap[i] = c[min]
		i = first + int32(min)
	}
	if first := 4*i + 1; first < n {
		min := first
		for c := first + 1; c < n; c++ {
			if s.heap[c].before(s.heap[min]) {
				min = c
			}
		}
		s.heap[i] = s.heap[min]
		i = min
	}
	s.siftUp(i, root, ent)
}
