package analysis

// Production configuration: the boundaries and protected types of this
// repo. Fixture tests build analyzers with their own configs; this file is
// the single place the real invariant surface is declared.

// outputPathPackages are the packages whose emissions reach users —
// reports, NDJSON, golden files, HTTP responses. detrange runs here.
var outputPathPackages = []string{
	"pegflow/internal/stats",
	"pegflow/internal/scenario",
	"pegflow/internal/server/...",
	"pegflow/internal/core",
	"pegflow/internal/ensemble",
	"pegflow/internal/dax",
	"pegflow/internal/bio/...",
	"pegflow/cmd/...",
}

// simBoundaryPackages are the packages inside the simulation boundary,
// where every input must derive from (scenario, seed). detsource runs
// here.
var simBoundaryPackages = []string{
	"pegflow/internal/sim/...",
	"pegflow/internal/engine",
	"pegflow/internal/fault",
	"pegflow/internal/planner",
	"pegflow/internal/ensemble",
}

// newCloneGate returns the production clonegate: the cached plan/DAX
// types, their defining packages and the audited whitelist of functions that
// mutate fresh (not cached) values.
func newCloneGate() *cloneGate {
	return &cloneGate{
		Protected: []string{
			"pegflow/internal/planner.Plan",
			"pegflow/internal/planner.Job",
			"pegflow/internal/dax.Workflow",
			"pegflow/internal/dax.Job",
		},
		DefiningPkgs: []string{
			"pegflow/internal/planner",
			"pegflow/internal/dax",
		},
		AllowedFuncs: map[string]string{
			"pegflow/internal/workflow.BuildDAX": "constructor: assembles a brand-new abstract DAX; nothing it touches is cached yet",
		},
	}
}

// Analyzers returns the full production suite in a stable order.
func Analyzers() []Analyzer {
	return []Analyzer{
		&detRange{Packages: outputPathPackages},
		&detSource{Packages: simBoundaryPackages},
		newCloneGate(),
	}
}
