// Package a is the slabcopy fixture: by-value copies of marker-protected
// arena types, plus the constructs that are fine.
package a

// arena is a slab carrier.
//
//pegflow:slab — fixture marker
type arena struct {
	slab []int64
	free []int32
}

// wrapper embeds an arena by value, so it is transitively protected.
type wrapper struct {
	a arena
	n int
}

// holder references the arena through a pointer: copying a holder copies
// only the pointer, which is fine.
type holder struct {
	a *arena
}

func newArena() *arena { return &arena{} }

func (a *arena) push(v int64) { // pointer receiver: fine
	a.slab = append(a.slab, v)
}

func badValueParam(a arena) int { // want `by-value parameter of slab type`
	return len(a.slab)
}

func (w wrapper) badSize() int { // want `value receiver of slab type`
	return len(w.a.slab) + w.n
}

func badDerefCopy(a *arena) {
	b := *a // want `assignment copies slab type`
	_ = b
}

func badFieldCopy(w *wrapper) {
	inner := w.a // want `assignment copies slab type`
	_ = inner
}

func badWrapperReturn(w *wrapper) wrapper { // want `by-value result of slab type`
	return *w // want `return copies slab type`
}

func badRangeCopy(as []arena) int {
	total := 0
	for _, a := range as { // want `range value copies slab type`
		total += len(a.slab)
	}
	return total
}

func goodPointerUse(as []arena) int {
	total := 0
	for i := range as { // index iteration: fine
		total += len(as[i].slab)
	}
	return total
}

func goodHolderCopy(h holder) holder { // pointer-holding struct: fine
	g := h
	return g
}

func goodFreshLiteral() *arena {
	a := &arena{} // fresh value, no aliasing: fine
	return a
}

// recordSlab is index-addressed with the free list threaded through the
// records (the shape of des.Simulation's events and platform's attempts):
// a copy shares the records and forks the free-list head.
//
//pegflow:slab
type recordSlab struct {
	recs []record
	free int32
}

type record struct {
	payload int64
	next    int32
}

// owner carries the slab by value, as platform.Executor carries its
// attempt slab.
type owner struct {
	attempts recordSlab
}

func (s *recordSlab) alloc() int32 { // pointer receiver: fine
	i := s.free
	if i < 0 {
		s.recs = append(s.recs, record{})
		return int32(len(s.recs) - 1)
	}
	s.free = s.recs[i].next
	return i
}

func goodRecordCopy(o *owner, i int32) record { // a record is not the slab: fine
	r := o.attempts.recs[i]
	return r
}

func badSnapshot(o *owner) int {
	snap := o.attempts // want `assignment copies slab type`
	return len(snap.recs)
}

func badOwnerCopy(o *owner) {
	twin := *o // want `assignment copies slab type`
	_ = twin
}
