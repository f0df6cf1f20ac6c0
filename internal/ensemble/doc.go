// Package ensemble runs many workflows concurrently against a shared pool
// of simulated platforms — the role of the Pegasus Ensemble Manager. Each
// member workflow is an ordinary meta-scheduler session (engine.Session,
// the state machine engine.Run loops over); the ensemble adds a global in-flight throttle across members and
// per-workflow priorities that decide which held job reaches the platform
// pool first when capacity frees up.
//
// Execution is single-threaded and deterministic: Run is one loop on the
// caller's goroutine that steps the pool's virtual clock, takes the next
// terminal event and hands it to the session of the member that submitted
// the attempt. For a fixed seed the interleaving — and therefore every
// statistic — is bit-identical across runs, a single workflow is exactly
// an ensemble of one, and a panic in a member's policy unwinds to Run's
// caller. Only planning fans out, over independent members, on pool.ForEach:
// PlanAll resolves each member's abstract workflow and plans it;
// PlanResolved is its twin for members that arrive as planner.Resolved
// masters (package core's multi-site plan cache shares one per workflow
// shape) and runs only the per-member steps — placement under a fresh
// policy, clustering, failover. PlanAll is Resolve plus those same steps.
package ensemble
