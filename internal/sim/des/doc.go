// Package des implements a minimal discrete-event simulation kernel.
//
// A Simulation owns a virtual clock and a priority queue of timed events.
// Code schedules callbacks at absolute virtual times (or after delays) and
// the kernel executes them in time order. Ties are broken by scheduling
// order, which keeps runs deterministic.
//
// The kernel is deliberately single-threaded: platform models built on top
// of it are ordinary sequential Go code, which makes them easy to test and
// bit-reproducible. Nothing inside a run starts a goroutine (pegflow-lint's
// detsource enforces it); parallelism belongs above the kernel, across
// independent simulations.
//
// Events live by value in a slab: a growable arena of event records indexed
// by a binary heap of slot numbers, with freed slots recycled through a
// free list. Steady-state scheduling therefore allocates nothing — the
// arena, heap and free list all reach a high-water mark and are reused.
// Callers hold EventID handles (slot + generation) instead of pointers; a
// stale handle (its event already fired or canceled) is detected by the
// generation check and every operation on it is a safe no-op.
package des
