package engine

import (
	"fmt"
	"io"

	"pegflow/internal/dax"
	"pegflow/internal/planner"
)

// RescueDAX builds the rescue workflow for an incomplete run: the
// sub-DAG of the plan induced by the unfinished jobs, with dependencies on
// completed jobs dropped (their outputs already exist) — what Pegasus
// resubmits after a failure (paper §III: "Pegasus generates a rescue
// workflow that contains information of the work that remains to be done").
// Each job carries what replanning it needs from the plan's slab: its
// arguments and, as a pegasus::runtime profile in the form BuildDAX writes,
// the runtime estimate this run was planned with (a composite's is its
// members' sum). It returns an error if the run actually succeeded.
func RescueDAX(plan *planner.Plan, res *Result) (*dax.Workflow, error) {
	if res.Success {
		return nil, fmt.Errorf("engine: no rescue workflow for a successful run")
	}
	unfinished := make(map[string]bool, len(res.Unfinished))
	for _, id := range res.Unfinished {
		unfinished[id] = true
	}
	graph := plan.Graph()
	out := dax.New(graph.Name + "-rescue")
	for _, j := range graph.Jobs() {
		if !unfinished[j.ID] {
			continue
		}
		pj := plan.Job(j.ID)
		rj := &dax.Job{ID: j.ID, Transformation: j.Transformation, Priority: j.Priority, Args: pj.Args, Uses: j.Uses}
		rj.SetProfile("pegasus", "runtime", fmt.Sprintf("%.3f", pj.ExecSeconds))
		if err := out.AddJob(rj); err != nil {
			return nil, err
		}
	}
	for _, j := range graph.Jobs() {
		if !unfinished[j.ID] {
			continue
		}
		for _, p := range graph.Parents(j.ID) {
			if unfinished[p] {
				if err := out.AddDependency(p, j.ID); err != nil {
					return nil, err
				}
			}
		}
	}
	return out, nil
}

// WriteRescue writes the rescue workflow as DAX XML.
func WriteRescue(w io.Writer, plan *planner.Plan, res *Result) error {
	rescue, err := RescueDAX(plan, res)
	if err != nil {
		return err
	}
	return rescue.WriteXML(w)
}
