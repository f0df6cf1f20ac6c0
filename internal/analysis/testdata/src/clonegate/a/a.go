// Package a is the clonegate fixture: writes through the cached plan/DAX
// types from outside their defining packages.
package a

import (
	"pegflow/internal/dax"
	"pegflow/internal/planner"
)

func badPatchJob(p *planner.Plan) {
	for _, j := range p.Jobs() {
		j.ExecSeconds = 1 // want `write to planner\.Job\.ExecSeconds`
	}
}

func badGraphRename(p *planner.Plan) {
	p.Graph().Name = "renamed" // want `write to dax\.Workflow\.Name`
}

func badSlabWrite(p *planner.Plan) {
	p.JobAt(0).Args[0] = "x" // want `write to planner\.Job\.Args`
}

// The graph a plan carries is shared with its master and every clone:
// mutating methods reached through the plan are findings even on a clone.
func badGraphGrowth(p *planner.Plan, j *dax.Job) error {
	q := p.Clone()
	q.Graph().NewJob("extra", "t")              // want `call to dax\.Workflow\.NewJob through a planner\.Plan`
	if err := q.Graph().AddJob(j); err != nil { // want `call to dax\.Workflow\.AddJob through a planner\.Plan`
		return err
	}
	if err := (*p).Graph().InferDependencies(); err != nil { // want `call to dax\.Workflow\.InferDependencies through a planner\.Plan`
		return err
	}
	return p.Graph().AddDependency("a", "extra") // want `call to dax\.Workflow\.AddDependency through a planner\.Plan`
}

func badGraphJobEdit(p *planner.Plan, plans []*planner.Plan) {
	p.Graph().Job("chunk").SetProfile("pegasus", "runtime", "1") // want `call to dax\.Job\.SetProfile through a planner\.Plan`
	plans[0].Graph().Job("chunk").AddInput("f", 1)               // want `call to dax\.Job\.AddInput through a planner\.Plan`
	p.Graph().Jobs()[0].AddOutput("g", 1)                        // want `call to dax\.Job\.AddOutput through a planner\.Plan`
}

// goodAbstractBuild mutates a workflow that no plan carries: building an
// abstract DAX with these methods is their purpose.
func goodAbstractBuild(p *planner.Plan) *dax.Workflow {
	w := dax.New(p.Graph().Name)
	w.NewJob("a", "t").AddInput("f", 1).SetProfile("pegasus", "runtime", "1")
	return w
}

func goodGraphReads(p *planner.Plan) int {
	return len(p.Graph().Parents("a")) + p.Graph().Job("a").Priority
}

func badDaxJobArgs(w *dax.Workflow) {
	w.Job("chunk").Args = nil // want `write to dax\.Job\.Args`
}

func badPriorityBump(j *planner.Job) {
	j.Priority++ // want `write to planner\.Job\.Priority`
}

func badSiteList(p *planner.Plan) {
	p.Sites[0] = "osg" // want `write to planner\.Plan\.Sites`
}

// freshCloneMutation is whitelisted in the test's analyzer config: it
// mutates a value it just cloned, the pattern the whitelist exists for.
func freshCloneMutation(p *planner.Plan) *planner.Plan {
	q := p.Clone()
	q.Site = "elsewhere"
	return q
}

func goodReads(p *planner.Plan) float64 {
	return p.TotalExecSeconds() // reads never flag
}

func goodLocalState(p *planner.Plan) map[string]bool {
	seen := make(map[string]bool)
	for _, j := range p.Jobs() {
		seen[j.ID] = true // write to a local map keyed by job data: fine
	}
	return seen
}
