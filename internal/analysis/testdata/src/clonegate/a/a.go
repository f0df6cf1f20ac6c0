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

func badViewUses(p *planner.Plan) {
	p.Graph().Job("chunk").Uses[0].Size = 1 // want `write to dax\.Job\.Uses`
}

// goodViewGrowth grows and edits a view Graph derived for it: the view is
// private to its caller, and these methods append or allocate.
func goodViewGrowth(p *planner.Plan) (*dax.Workflow, error) {
	g := p.Graph()
	g.NewJob("extra", "t").AddInput("f", 1).SetProfile("pegasus", "runtime", "1")
	return g, g.AddDependency("a", "extra")
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
