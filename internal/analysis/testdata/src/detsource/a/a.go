// Package a is the detsource fixture: positive and negative cases for
// nondeterministic inputs inside the simulation boundary.
package a

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"
)

func badClock() time.Time {
	return time.Now() // want "time.Now inside the simulation boundary"
}

func badSince(t0 time.Time) float64 {
	return time.Since(t0).Seconds() // want "time.Since inside the simulation boundary"
}

func badGlobalRand() int {
	return rand.Intn(10) // want `math/rand\.Intn uses the global process-wide source`
}

func badShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `math/rand\.Shuffle uses the global`
}

func goodSeededRand(seed int64) int {
	r := rand.New(rand.NewSource(seed)) // constructor: fine
	return r.Intn(10)                   // method on a private generator: fine
}

func badEnv() string {
	return os.Getenv("PEGFLOW_MODE") // want `os\.Getenv inside the simulation boundary`
}

func badLookupEnv() bool {
	_, ok := os.LookupEnv("PEGFLOW_MODE") // want `os\.LookupEnv inside the simulation boundary`
	return ok
}

func badFmtMap(m map[string]int) string {
	return fmt.Sprintf("cfg=%v", m) // want `fmt\.Sprintf formats a map value`
}

func badFmtSprint(m map[string]int) string {
	return fmt.Sprint(m) // want `fmt\.Sprint formats a map value`
}

func goodFmtKeys(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return fmt.Sprintf("keys=%v", keys) // slice arg, deterministic: fine
}

func goodFmtScalar(n int) string {
	return fmt.Sprintf("n=%v", n) // fine
}

func badGoroutine(out chan<- int) {
	go func() { out <- 1 }() // want "go statement inside the simulation boundary"
}
