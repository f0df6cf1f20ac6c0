// Package analysis is pegflow's project-specific static-analysis suite —
// the mechanical enforcement of the three invariants every PR so far has
// defended by hand: byte-identical output across worker counts
// (determinism), clone-before-mutate on cached plan/DAX masters, and a
// zero-allocation simulation kernel.
//
// The package is built purely on the standard library (go/parser,
// go/types, and a `go list`-driven package loader) so the module keeps its
// zero-dependency rule; there is no golang.org/x/tools import anywhere.
// Five analyzers run over the fully type-checked repo:
//
//   - detrange: flags `range` over a map whose body builds output
//     (appends, writes to an encoder/writer, or calls a closure that
//     does) without a subsequent deterministic sort, in the packages on
//     the output path.
//   - detsource: forbids wall-clock, global math/rand, environment reads,
//     map-formatting fmt calls and go statements inside the simulation
//     boundary, with an explicit allowlist file for the few legitimate
//     uses.
//   - clonegate: forbids assignments through *planner.Plan, *planner.Job,
//     *dax.Workflow or *dax.Job outside the defining packages and a
//     justified whitelist of constructor functions, mutating dax
//     method calls on a graph reached through a plan, and calls to a
//     registered slab-writing plan method from anywhere but its
//     registered callers, keeping cached masters — and the shape every
//     plan clone shares with them — immutable.
//   - slabcopy: flags by-value copies of types marked //pegflow:slab
//     (arena/free-list carriers and types that embed them), where a copy
//     would alias the free list.
//   - escapegate: runs `go build -gcflags=-m` and asserts that a declared
//     list of hot kernel functions has zero heap escapes outside panic
//     paths, generalizing the TestAllocs gates to the whole kernel.
//
// The cmd/pegflow-lint binary drives the suite; docs/LINTING.md documents
// each analyzer, the invariant it guards, and the allowlist workflow.
package analysis
