//go:build race

package scenario

// raceEnabled: the race detector's instrumentation allocates on its own and
// sync.Pool sheds entries under it, so exact allocation budgets do not hold
// there.
const raceEnabled = true
