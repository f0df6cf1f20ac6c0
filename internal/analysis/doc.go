// Package analysis is pegflow's project-specific static-analysis suite —
// the mechanical enforcement of the invariants every PR so far has
// defended by hand: byte-identical output across worker counts
// (determinism), clone-before-mutate on cached plan/DAX masters, and
// cancelable waits on the serve tier's request path.
//
// The package is built purely on the standard library (go/parser,
// go/types, and a `go list`-driven package loader) so the module keeps its
// zero-dependency rule; there is no golang.org/x/tools import anywhere.
// Three analyzers guard the first two over the fully type-checked repo
// (by-value copies of the kernel's slab types are `go vet`'s business: each
// carries a noCopy field, see docs/LINTING.md):
//
//   - detrange: flags `range` over a map whose body builds output
//     (appends, writes to an encoder/writer, or calls a closure that
//     does) without a subsequent deterministic sort, in the packages on
//     the output path.
//   - detsource: forbids wall-clock, global math/rand, environment reads,
//     map-formatting fmt calls and go statements inside the simulation
//     boundary, with no exemptions.
//   - clonegate: forbids assignments through *planner.Plan, *planner.Job,
//     *dax.Workflow or *dax.Job outside the defining packages and a
//     justified whitelist of constructor functions, keeping cached
//     masters — and the backing arrays every plan clone and derived view
//     shares with them — immutable.
//
// A fourth, ctxflow, guards the last: a request-path function that receives
// a context threads it, and every blocking wait there can observe its
// cancellation.
//
// The zero-allocation kernel has no analyzer: the TestAllocs gates
// (`make allocs`) measure it.
//
// Lock discipline has no analyzer: every lock site is a small type that owns
// its mutex and takes it, with a deferred unlock, in each of its methods
// (docs/LINTING.md lists the sites and what checks them).
//
// The cmd/pegflow-lint binary drives the suite; docs/LINTING.md documents
// each analyzer and the invariant it guards. There is no exemption file:
// a finding is fixed, never excused.
package analysis
