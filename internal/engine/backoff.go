package engine

import (
	"pegflow/internal/planner"
	"pegflow/internal/sim/rng"
)

// BackoffPolicy returns the delay, in seconds, to wait before
// re-submitting a job whose given attempt number just failed. A nil
// policy (or a zero return) retries immediately — the engine's historic
// behavior.
type BackoffPolicy func(attempt int) float64

// DelayedSubmitter is the optional executor capability the engine uses
// to apply backoff delays: SubmitAfter schedules the attempt after delay
// seconds of executor time. Simulated executors implement it on the
// virtual clock; executors without it fall back to immediate submission
// and backoff is recorded but not waited out.
type DelayedSubmitter interface {
	SubmitAfter(job *planner.Job, attempt int, delay float64)
}

// ExpBackoff returns an exponential-backoff-with-full-jitter policy: the
// k-th retry draws uniform(0, min(cap, base*2^(k-1))) from the stream.
// A non-positive cap leaves the window uncapped. The stream makes the
// jitter deterministic for a fixed seed; callers must dedicate a stream
// per engine run (draws happen in event order).
func ExpBackoff(base, cap float64, s *rng.Stream) BackoffPolicy {
	return func(attempt int) float64 {
		w := base
		for i := 1; i < attempt; i++ {
			w *= 2
			if cap > 0 && w >= cap {
				w = cap
				break
			}
		}
		if cap > 0 && w > cap {
			w = cap
		}
		return s.Uniform(0, w)
	}
}
