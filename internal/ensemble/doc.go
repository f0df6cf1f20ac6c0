// Package ensemble runs many workflows concurrently against a shared pool
// of simulated platforms — the role of the Pegasus Ensemble Manager. Each
// member workflow is an ordinary meta-scheduler session (engine.Session,
// the state machine engine.Run loops over); the ensemble adds a global
// in-flight throttle across members and per-workflow priorities that decide
// which held job reaches the platform pool first when capacity frees up.
//
// A submission allocates nothing on its way through the driver: the hold
// queue is a heap of values, a member's attempts all deliver through the one
// emit callback Run built for it, and a backoff delay is a typed event on
// the pool's clock (the driver is its des.Handler) naming a slot in the
// driver's slab of delayed submissions. Run reserves the pool for the
// members' total job count before admitting them.
//
// Execution is single-threaded and deterministic: Run is one loop on the
// caller's goroutine that steps the pool's virtual clock, takes the next
// terminal event and hands it to the session of the member that submitted
// the attempt. For a fixed seed the interleaving — and therefore every
// statistic — is bit-identical across runs, a single workflow is exactly
// an ensemble of one, and a panic in a member's policy unwinds to Run's
// caller. Only planning fans out, over independent members, on pool.ForEach:
// PlanAll resolves each member's abstract workflow and plans it;
// PlanMember is its per-member step for a member that arrives as a
// planner.Resolved master (package core's plan cache shares one per
// workflow shape, and fans its own members out) — placement under a fresh
// policy, clustering, failover. PlanAll is Resolve plus that same step.
package ensemble
