// Package des implements a minimal discrete-event simulation kernel.
//
// A Simulation owns a virtual clock and a priority queue of timed events.
// Code schedules events at absolute virtual times (or after delays) and
// the kernel fires them in time order. Ties are broken by scheduling
// order, which keeps runs deterministic.
//
// An event is data: a Handler, an operation code and an argument, fired as
// h.HandleEvent(op, arg). A model that keeps its state in index-addressed
// records schedules with AtOp, AfterOp and Resource.AcquireOp — the handler
// is a pointer, the argument a record index — and allocates nothing per
// event. At, After and Acquire take a plain func() and are adapters over
// the same three: a func value stored in the Handler interface is not
// boxed. There is one event representation and one dispatch.
//
// The kernel is deliberately single-threaded: platform models built on top
// of it are ordinary sequential Go code, which makes them easy to test and
// bit-reproducible. Nothing inside a run starts a goroutine (pegflow-lint's
// detsource enforces it); parallelism belongs above the kernel, across
// independent simulations.
//
// Events live by value in a slab: a growable arena of event records, with
// freed slots recycled through a free list threaded through the records,
// ordered by a 4-ary heap whose entries carry the firing key (time,
// sequence) inline, so sifting never reads the arena. Steady-state
// scheduling therefore allocates nothing — the arena and the heap reach a
// high-water mark and are reused; Reserve sets that mark up front for a
// model that knows its size, and growth otherwise doubles. The firing order
// is the (time, sequence) order, a strict total order, so it does not
// depend on the heap's shape (FuzzKernelOrder checks it against a reference
// model). Callers hold EventID handles (slot + generation) instead of
// pointers; a stale handle (its event already fired or canceled) is
// detected by the generation check and every operation on it is a safe
// no-op.
package des
