//go:build race

package planner

// raceEnabled: the race detector's instrumentation allocates on its own, so
// exact allocation counts do not hold there.
const raceEnabled = true
