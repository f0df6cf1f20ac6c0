// Package kernel is the escapegate fixture: a miniature slab kernel with
// one clean hot function, one that allocates only on its panic path, and
// one with a deliberate steady-state heap allocation — and the typed-event
// shapes of the real kernel: a handler interface holding a pointer or a
// func (clean), growth in a helper that is not inlined (clean for the
// caller), and a value boxed into an interface (flagged).
package kernel

import "fmt"

// Sim is a toy slab arena.
type Sim struct {
	arena []int64
	free  []int32
	sink  *int64
}

// Clean reuses free-list slots and grows by append: no value is forced to
// the heap, so the gate must pass it.
func (s *Sim) Clean(v int64) {
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		s.arena[slot] = v
		return
	}
	s.arena = append(s.arena, v)
}

// PanicsOnly allocates only inside the panic call; the gate's panic-path
// exemption must pass it.
func (s *Sim) PanicsOnly(i int) int64 {
	if i < 0 || i >= len(s.arena) {
		panic(fmt.Sprintf("kernel: slot %d out of range (%d slots)", i, len(s.arena)))
	}
	return s.arena[i]
}

// Dirty allocates on every call: new(int64) escapes into the struct. The
// gate must flag it.
func (s *Sim) Dirty(v int64) {
	p := new(int64)
	*p = v
	s.sink = p
}

// Handler is the typed-event receiver.
type Handler interface{ Handle(op, arg int32) }

type event struct {
	h       Handler
	op, arg int32
}

// Queue is a toy event slab.
type Queue struct {
	events []event
	boxed  []any
}

type funcHandler func()

func (f funcHandler) Handle(_, _ int32) { f() }

// Schedule stores a handler and two integers: a pointer receiver in the
// interface is not an allocation, and growth happens in grow, which is not
// inlined, so no allocation site lands here. The gate must pass it.
func (q *Queue) Schedule(h Handler, op, arg int32) {
	if len(q.events) == cap(q.events) {
		q.grow()
	}
	q.events = append(q.events, event{h: h, op: op, arg: arg})
}

// ScheduleFunc adapts a callback: a func value is pointer-shaped, so the
// conversion does not box it. The gate must pass it.
func (q *Queue) ScheduleFunc(fn func()) { q.Schedule(funcHandler(fn), 0, 0) }

//go:noinline
func (q *Queue) grow() {
	out := make([]event, len(q.events), 2*cap(q.events)+8)
	copy(out, q.events)
	q.events = out
}

// ScheduleInlineGrowth is Schedule with the growth written in place: the
// make is an allocation site inside the guarded function. The gate must
// flag it.
func (q *Queue) ScheduleInlineGrowth(h Handler, op, arg int32) {
	if len(q.events) == cap(q.events) {
		out := make([]event, len(q.events), 2*cap(q.events)+8)
		copy(out, q.events)
		q.events = out
	}
	q.events = append(q.events, event{h: h, op: op, arg: arg})
}

// Boxed stores a value that is not pointer-shaped in an interface: every
// call allocates the box. The gate must flag it.
func (q *Queue) Boxed(at float64) {
	q.boxed = append(q.boxed, at)
}
