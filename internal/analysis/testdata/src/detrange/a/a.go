// Package a is the detrange fixture: map iterations that build output
// with and without a deterministic sort.
package a

import (
	"fmt"
	"io"
	"sort"
)

func badAppend(m map[string]int) []string {
	var out []string
	for k := range m { // want "map iteration order is nondeterministic and the body appends"
		out = append(out, k)
	}
	return out
}

func goodCollectThenSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m { // canonical two-phase idiom: fine
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func goodSlicesSort(m map[string]int) []string {
	var keys []string
	for k := range m { // sorted via sort.Slice: fine
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func badWrite(w io.Writer, m map[string]int) {
	for k, v := range m { // want "map iteration order is nondeterministic and the body writes output"
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}

func badPrint(m map[string]int) {
	for k, v := range m { // want "map iteration order is nondeterministic and the body writes output"
		fmt.Printf("%s=%d\n", k, v)
	}
}

func badClosure(m map[string]int) []string {
	var errs []string
	add := func(s string) { errs = append(errs, s) }
	for k := range m { // want "calls a closure that builds output"
		add(k)
	}
	return errs
}

func badCallback(m map[string]int, emit func(string)) {
	for k := range m { // want "invokes a callback"
		emit(k)
	}
}

func goodReduction(m map[string]int) int {
	total := 0
	for _, v := range m { // commutative fold: fine
		total += v
	}
	return total
}

func goodSliceRange(xs []string, w io.Writer) {
	for _, x := range xs { // slice range: deterministic, fine
		fmt.Fprintln(w, x)
	}
}
