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
// freed slots recycled through a free list threaded through the records.
// They fire from three sources: the lane, a FIFO of the events due at the
// current instant (every zero-delay event, such as a Resource grant),
// threaded through the arena; a 4-ary heap of the other one-off events,
// whose entries carry the firing key inline so sifting never reads the
// arena; and the periodic series of AtSeriesOp (a slot ramp), which stay
// out of the heap: each keeps the key of its next firing in its own record,
// and the kernel tracks the earliest, so a series step costs a scan of the
// few live series, not a sift. The heap compares a key (time, sequence) as
// one 96-bit unsigned integer, time's bits above the sequence's, and picks
// the least of a node's four children without a branch. That needs every
// queued time to be non-negative, whose float64 bits order as its value
// does: the clock starts at +0, nothing is scheduled before now, NaN is
// refused and AtOp turns -0 into +0.
//
// Steady-state scheduling allocates nothing: the arena and the heap reach a
// high-water mark and are reused; Reserve sets that mark up front for a
// model that knows its size, and growth otherwise doubles. Reset (and Resource.Reset) rewinds a simulation to time zero
// keeping that storage, for a model that runs one simulation after another;
// New is Reset applied to an empty one.
// The firing order is the (time, sequence) order, a strict total order, so
// it does not depend on which source holds an event or on the heap's shape
// (FuzzKernelOrder checks it against a reference model that expands every
// series into one-off events). Callers hold EventID handles (slot +
// generation) instead of pointers; a stale handle (its event already fired
// or canceled) is detected by the generation check and every operation on
// it is a safe no-op. Cancel only marks the event; nothing records where a
// heap entry sits. A Resource request has no handle: it waits by value in
// the FIFO until it is granted. A model drives the kernel with Step; the
// observers the tests read (Pending, Live, EventTime, Processed, Resource's
// InUse and QueueLen) and the Run and At drivers are declared in the
// package's test files.
package des
