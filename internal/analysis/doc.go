// Package analysis is pegflow's project-specific static-analysis suite —
// the mechanical enforcement of the invariants every PR so far has
// defended by hand: byte-identical output across worker counts
// (determinism), clone-before-mutate on cached plan/DAX masters, a
// zero-allocation simulation kernel, and the serve tier's locking
// discipline.
//
// The package is built purely on the standard library (go/parser,
// go/types, and a `go list`-driven package loader) so the module keeps its
// zero-dependency rule; there is no golang.org/x/tools import anywhere.
// Four analyzers guard the first three over the fully type-checked repo
// (by-value copies of the kernel's slab types are `go vet`'s business: each
// carries a noCopy field, see docs/LINTING.md):
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
//     justified whitelist of constructor functions, keeping cached
//     masters — and the backing arrays every plan clone and derived view
//     shares with them — immutable.
//   - escapegate: runs `go build -gcflags=-m` and asserts that a declared
//     list of hot kernel functions has zero heap escapes outside panic
//     paths, generalizing the TestAllocs gates to the whole kernel.
//
// Four more — guardfield, pairpath, ctxflow, lockhold (markers.go) — check
// the concurrency annotations over a shared control-flow graph (cfg).
//
// The cmd/pegflow-lint binary drives the suite; docs/LINTING.md documents
// each analyzer, the invariant it guards, and the allowlist workflow.
package analysis
