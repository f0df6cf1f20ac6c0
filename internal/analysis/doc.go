// Package analysis is pegflow's project-specific static-analysis suite —
// the mechanical enforcement of two invariants that tests probe only at the
// inputs they try: byte-identical output across worker counts
// (determinism) and clone-before-mutate on cached plan/DAX masters.
//
// The package is built purely on the standard library (go/parser,
// go/types, and a `go list`-driven package loader) so the module keeps its
// zero-dependency rule; there is no golang.org/x/tools import anywhere.
// Three analyzers run over the fully type-checked repo:
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
// Each keeps its place through a mutant table in docs/LINTING.md: a rule
// whose injected violations tests kill has no analyzer. So cancelable
// waits on the request path are pinned by the server and scenario tests,
// the zero-allocation kernel by the TestAllocs gates (`make allocs`), and
// lock discipline by lock-owning types (docs/LINTING.md lists the sites
// and what checks them). By-value copies of the kernel's slab types are
// `go vet`'s business: each carries a noCopy field.
//
// The cmd/pegflow-lint binary drives the suite; docs/LINTING.md documents
// each analyzer and the invariant it guards. There is no exemption file:
// a finding is fixed, never excused.
package analysis
