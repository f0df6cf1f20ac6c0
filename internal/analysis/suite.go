package analysis

import "fmt"

// Production configuration: the boundaries, protected types and guarded
// hot functions of this repo. Fixture tests build analyzers with their
// own configs; this file is the single place the real invariant surface
// is declared.

// OutputPathPackages are the packages whose emissions reach users —
// reports, NDJSON, golden files, HTTP responses. detrange runs here.
var OutputPathPackages = []string{
	"pegflow/internal/stats",
	"pegflow/internal/scenario",
	"pegflow/internal/server/...",
	"pegflow/internal/core",
	"pegflow/internal/ensemble",
	"pegflow/internal/dax",
	"pegflow/cmd/...",
}

// SimBoundaryPackages are the packages inside the simulation boundary,
// where every input must derive from (scenario, seed). detsource runs
// here.
var SimBoundaryPackages = []string{
	"pegflow/internal/sim/...",
	"pegflow/internal/engine",
	"pegflow/internal/fault",
	"pegflow/internal/planner",
	"pegflow/internal/ensemble",
}

// RequestPathPackages are the packages on the serve/scenario request
// path, where every blocking wait must be cancelable by the request's
// context. ctxflow runs here.
var RequestPathPackages = []string{
	"pegflow/internal/server/...",
	"pegflow/internal/scenario",
}

// NewCloneGate returns the production clonegate: the cached plan/DAX
// types, their defining packages and the audited whitelist of functions that
// mutate fresh (not cached) values.
func NewCloneGate() *CloneGate {
	return &CloneGate{
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
			"pegflow/internal/workflow.BuildDAX":       "constructor: assembles a brand-new abstract DAX; nothing it touches is cached yet",
			"pegflow/internal/workflow.BuildSerialDAX": "constructor: assembles the serial-baseline DAX from scratch",
		},
	}
}

// NewEscapeGate returns the production escapegate: the allocation-free
// hot path of the slab DES kernel, the resource wait queue, the platform's
// attempt path, the engine's submit path and the fifo ring. Slabs grow in
// unguarded //go:noinline helpers (Simulation.newSlot, attemptSlab.extend,
// …), where the make is reported; an append that stays within capacity
// never shows in -m output — escape analysis reports forced-to-heap values,
// not amortized slice growth — so guarding schedule/fire wholesale is sound.
func NewEscapeGate() *EscapeGate {
	return &EscapeGate{Guards: []EscapeGuard{
		{
			Pkg: "pegflow/internal/sim/des",
			Funcs: []string{
				// event slab, lane, heap and series
				"Simulation.AtOp", "Simulation.AfterOp", "Simulation.At",
				"Simulation.After", "Simulation.AtSeriesOp",
				"Simulation.Cancel", "Simulation.Step",
				"Simulation.front", "Simulation.stepSeries",
				"Simulation.release", "Simulation.freeSlot",
				"Simulation.lookup", "Simulation.lanePush",
				"Simulation.compact",
				"Simulation.heapPush", "Simulation.heapPop",
				"Simulation.siftUp", "Simulation.sink",
				"heapEntry.before", "funcHandler.HandleEvent",
				// resource wait queue
				"Resource.AcquireOp", "Resource.Acquire", "Resource.Release",
				"Resource.enqueue", "Resource.popHead",
				"Resource.dispatch", "Resource.account",
			},
		},
		{
			// One attempt, Submit to terminal event. finishDone and
			// finishEvicted are not here: the engine.Event they deliver holds
			// the kickstart record, which is arena-allocated by design.
			Pkg: "pegflow/internal/sim/platform",
			Funcs: []string{
				"Executor.SubmitFor", "Executor.route",
				"site.HandleEvent", "site.submit",
				"site.newAttempt", "site.dispatchAttempt",
				"site.runOnNode", "site.retire",
				"attemptSlab.alloc", "attemptSlab.release",
			},
		},
		{
			Pkg:   "pegflow/internal/engine",
			Funcs: []string{"Session.submitBatch", "Session.submit"},
		},
		{
			Pkg:   "pegflow/internal/fifo",
			Funcs: []string{"Queue.Push", "Queue.Pop", "Queue.Peek"},
		},
	}}
}

// Analyzers returns the full production suite in a stable order.
func Analyzers() []Analyzer {
	return []Analyzer{
		&DetRange{Packages: OutputPathPackages},
		&DetSource{Packages: SimBoundaryPackages},
		NewCloneGate(),
		NewEscapeGate(),
		&CtxFlow{Packages: RequestPathPackages},
	}
}

// Select filters analyzers by the enable/disable name sets (nil or empty
// enable means all). Unknown names error so a typo cannot silently run
// nothing.
func Select(all []Analyzer, enable, disable map[string]bool) ([]Analyzer, error) {
	known := make(map[string]bool, len(all))
	for _, a := range all {
		known[a.Name()] = true
	}
	for name := range enable {
		if !known[name] {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
	}
	for name := range disable {
		if !known[name] {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
	}
	var out []Analyzer
	for _, a := range all {
		if len(enable) > 0 && !enable[a.Name()] {
			continue
		}
		if disable[a.Name()] {
			continue
		}
		out = append(out, a)
	}
	return out, nil
}
