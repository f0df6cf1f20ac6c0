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

// LockHoldPackages are the packages holding request-path mutexes (cache
// shards, output serialization, progress, first-error collection).
// lockhold runs here.
var LockHoldPackages = []string{
	"pegflow/internal/server/...",
	"pegflow/internal/scenario",
	"pegflow/internal/core",
	"pegflow/internal/pool",
}

// NewLockHold returns the production lockhold: the serve-tier lock
// packages plus the calls that are blocking by fiat — cell-simulation
// entry points (seconds of DES work per call) and stdlib network/file
// I/O, none of which may run inside a critical section.
func NewLockHold() *LockHold {
	return &LockHold{
		Packages: LockHoldPackages,
		BlockingCalls: []string{
			// Simulation entry points.
			"pegflow/internal/core.Experiment.RunWorkflow",
			"pegflow/internal/core.Experiment.RunSerial",
			"pegflow/internal/core.Experiment.RunClustered",
			"pegflow/internal/core.Experiment.RunVariant",
			"pegflow/internal/core.Experiment.RunAll",
			"pegflow/internal/core.EnsembleExperiment.Run",
			"pegflow/internal/core.MonteCarloSweep",
			// Network and file I/O on the serve tier.
			"net/http.Client.Do",
			"net/http.Client.Get",
			"net/http.Client.Post",
			"net/http.ResponseWriter.Write",
			"net/http.Flusher.Flush",
			"io.Copy",
			"os.ReadFile",
			"os.WriteFile",
			"os.Open",
			"os.Create",
		},
	}
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
// hot path of the slab DES kernel, the resource arena, the platform's
// attempt path, the engine ready queue and the fifo ring. Slabs grow in
// unguarded //go:noinline helpers (Simulation.newSlot, attemptSlab.extend,
// …), where the make is reported; an append that stays within capacity
// never shows in -m output — escape analysis reports forced-to-heap values,
// not amortized slice growth — so guarding schedule/fire wholesale is sound.
func NewEscapeGate() *EscapeGate {
	return &EscapeGate{Guards: []EscapeGuard{
		{
			Pkg: "pegflow/internal/sim/des",
			Funcs: []string{
				// event slab + heap
				"Simulation.AtOp", "Simulation.AfterOp", "Simulation.At",
				"Simulation.After", "Simulation.Cancel", "Simulation.Step",
				"Simulation.release", "Simulation.lookup",
				"Simulation.heapPush", "Simulation.heapRemove",
				"Simulation.siftUp", "Simulation.siftDown",
				"heapEntry.before", "funcHandler.HandleEvent",
				// resource request arena
				"Resource.AcquireOp", "Resource.Acquire", "Resource.Release",
				"Resource.releaseReq", "Resource.popHead",
				"Resource.maybeCompact", "Resource.dispatch",
				"Resource.account", "Acquisition.Cancel",
			},
		},
		{
			// One attempt, Submit to terminal event. finishDone and
			// finishEvicted are not here: the engine.Event they emit holds
			// the kickstart record, which is arena-allocated by design.
			Pkg: "pegflow/internal/sim/platform",
			Funcs: []string{
				"Executor.HandleEvent", "Executor.submitWith",
				"Executor.newAttempt", "Executor.dispatchAttempt",
				"Executor.runOnNode", "Executor.retire",
				"attemptSlab.alloc", "attemptSlab.release",
			},
		},
		{
			Pkg:   "pegflow/internal/engine",
			Funcs: []string{"readyQueue.push", "readyQueue.pop", "readyQueue.less"},
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
		&GuardField{},
		&PairPath{},
		&CtxFlow{Packages: RequestPathPackages},
		NewLockHold(),
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
