package dax

import "fmt"

// The queries below have no caller outside tests: FuzzWorkflowOps checks
// each against the reference graph, and the unit tests read the diamond
// and the round-tripped workflows through them.

// Roots returns jobs with no parents, in insertion order.
func (w *Workflow) Roots() []string {
	t := w.topology()
	var out []string
	for k, j := range w.jobs {
		if t.parentAt[k] == t.parentAt[k+1] {
			out = append(out, j.ID)
		}
	}
	return out
}

// Leaves returns jobs with no children, in insertion order.
func (w *Workflow) Leaves() []string {
	t := w.topology()
	var out []string
	for k, j := range w.jobs {
		if t.childAt[k] == t.childAt[k+1] {
			out = append(out, j.ID)
		}
	}
	return out
}

// InferDependencies adds edges from every producer of a logical file to
// every consumer of that file. This is how Pegasus derives structure from
// data flow when explicit edges are omitted.
func (w *Workflow) InferDependencies() error {
	producer := make(map[string][]int32)
	for k, j := range w.jobs {
		for _, u := range j.Uses {
			if u.Link == LinkOutput {
				producer[u.LFN] = append(producer[u.LFN], int32(k))
			}
		}
	}
	for k, j := range w.jobs {
		for _, u := range j.Uses {
			if u.Link != LinkInput {
				continue
			}
			for _, p := range producer[u.LFN] {
				if p == int32(k) {
					return fmt.Errorf("dax: job %q both produces and consumes %q", j.ID, u.LFN)
				}
				w.link(p, int32(k))
			}
		}
	}
	return nil
}

// ValidOrder is Validate for callers that go on to walk the workflow: it
// returns the topological order (TopoSort) its acyclicity check computed.
func (w *Workflow) ValidOrder() ([]string, error) {
	if _, err := w.valid(); err != nil {
		return nil, err
	}
	return w.TopoSort()
}
