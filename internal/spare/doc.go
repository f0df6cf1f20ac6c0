// Package spare keeps released storage for the next claim: a free list that
// every goroutine takes from, aged by the garbage collector.
//
// A sync.Pool would do the aging, but it keeps one released object per P
// out of the other Ps' reach, so whether a claim finds the storage the last
// release handed back depends on which P the claiming goroutine runs on: a
// process that runs one large cell after another reused its storage in about
// half of them. A List hands any goroutine what any other released, and
// drops what it holds the way sync.Pool does, across two garbage
// collections: each cycle moves what was released since the cycle before to
// an old generation and drops the old one, so released storage is held for
// at most two GC cycles and an idle process keeps none of it.
package spare
