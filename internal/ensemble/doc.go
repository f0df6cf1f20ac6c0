// Package ensemble runs many workflows concurrently against a shared pool
// of simulated platforms — the role of the Pegasus Ensemble Manager. Each
// member workflow is an ordinary meta-scheduler session (engine.Session,
// the state machine engine.Run loops over); the ensemble adds a global
// in-flight throttle across members and per-workflow priorities that decide
// which held job reaches the platform pool first when capacity frees up.
// Options.MaxInFlight is the one throttle a run has — DAGMan's maxjobs,
// for an ensemble of one too — and the hold queue is the one place a
// submission waits before the pool: a session submits every job it
// readies at once.
//
// A submission allocates nothing on its way through the driver: the hold
// queue is a heap of values, an attempt goes to the pool tagged with its
// member's index and its terminal event comes back with that tag, and a
// backoff delay is a typed event on the pool's clock (the driver is its
// des.Handler) naming a slot in the driver's slab of delayed submissions.
// Run reserves the pool for the members' total job count before admitting
// them.
//
// Execution is single-threaded and deterministic: Run is one loop on the
// caller's goroutine that pulls the pool's next terminal event and hands it
// to the session of the member that submitted the attempt. For a fixed
// seed the interleaving — and therefore every statistic — is bit-identical
// across runs, a single workflow is exactly an ensemble of one, and a panic
// in a member's policy unwinds to Run's caller. Planning is a plain loop
// too: PlanAll resolves each member's abstract workflow and plans it, one
// member after another. PlanMember is its per-member step for a member that
// arrives as a planner.Resolved master (package scenario's plan cache shares one
// per workflow shape) — placement under a fresh policy, clustering,
// failover. PlanAll is Resolve plus that same step.
//
// Result.Release hands the storage a run used — the platform pool and the
// member plans — to later runs, for a caller that owns them all (a
// scenario cell, once its row is built); the member logs go with it.
package ensemble
