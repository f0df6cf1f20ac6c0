//go:build race

package workflow

// raceEnabled: under the race detector sync.Pool drops a quarter of what it
// is given on purpose, so gates on pooled scratch do not hold there.
const raceEnabled = true
