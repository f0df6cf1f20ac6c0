// The map-of-maps Workflow this package had before the graph moved onto
// job numbers and a derived topology, kept as the reference FuzzWorkflowOps
// replays every op program against: the same jobs, the same edges, the same
// answers from every query, for any sequence of edits and reads.

package dax

import (
	"fmt"
	"sort"
)

// referenceWorkflow is the deleted Workflow: jobs by ID, insertion order as
// a list of IDs, and both adjacency directions as sets of IDs.
type referenceWorkflow struct {
	Name     string
	jobs     map[string]*Job
	order    []string
	parents  map[string]map[string]bool
	children map[string]map[string]bool
	edges    int
}

func newReference(name string) *referenceWorkflow {
	return &referenceWorkflow{
		Name:     name,
		jobs:     make(map[string]*Job),
		parents:  make(map[string]map[string]bool),
		children: make(map[string]map[string]bool),
	}
}

func (w *referenceWorkflow) AddJob(j *Job) error {
	if j.ID == "" {
		return fmt.Errorf("dax: job with empty ID")
	}
	if _, dup := w.jobs[j.ID]; dup {
		return fmt.Errorf("dax: duplicate job ID %q", j.ID)
	}
	w.jobs[j.ID] = j
	w.order = append(w.order, j.ID)
	return nil
}

func (w *referenceWorkflow) Job(id string) *Job { return w.jobs[id] }

func (w *referenceWorkflow) Jobs() []*Job {
	out := make([]*Job, 0, len(w.order))
	for _, id := range w.order {
		out = append(out, w.jobs[id])
	}
	return out
}

func (w *referenceWorkflow) Clone() *referenceWorkflow {
	out := newReference(w.Name)
	out.order = append([]string(nil), w.order...)
	for _, id := range w.order {
		out.jobs[id] = w.jobs[id].Clone()
	}
	copyEdges := func(src map[string]map[string]bool) map[string]map[string]bool {
		dst := make(map[string]map[string]bool, len(src))
		for id, set := range src {
			cp := make(map[string]bool, len(set))
			for k := range set {
				cp[k] = true
			}
			dst[id] = cp
		}
		return dst
	}
	out.parents = copyEdges(w.parents)
	out.children = copyEdges(w.children)
	out.edges = w.edges
	return out
}

func (w *referenceWorkflow) AddDependency(parent, child string) error {
	if parent == child {
		return fmt.Errorf("dax: self-dependency on %q", parent)
	}
	if _, ok := w.jobs[parent]; !ok {
		return fmt.Errorf("dax: dependency references unknown parent %q", parent)
	}
	if _, ok := w.jobs[child]; !ok {
		return fmt.Errorf("dax: dependency references unknown child %q", child)
	}
	if w.parents[child] == nil {
		w.parents[child] = make(map[string]bool)
	}
	if w.children[parent] == nil {
		w.children[parent] = make(map[string]bool)
	}
	if !w.parents[child][parent] {
		w.edges++
	}
	w.parents[child][parent] = true
	w.children[parent][child] = true
	return nil
}

func (w *referenceWorkflow) Parents(id string) []string { return sortedKeys(w.parents[id]) }

func (w *referenceWorkflow) Children(id string) []string { return sortedKeys(w.children[id]) }

func (w *referenceWorkflow) Roots() []string {
	var out []string
	for _, id := range w.order {
		if len(w.parents[id]) == 0 {
			out = append(out, id)
		}
	}
	return out
}

func (w *referenceWorkflow) Leaves() []string {
	var out []string
	for _, id := range w.order {
		if len(w.children[id]) == 0 {
			out = append(out, id)
		}
	}
	return out
}

func (w *referenceWorkflow) Edges() int { return w.edges }

func (w *referenceWorkflow) InferDependencies() error {
	producer := make(map[string][]string)
	for _, id := range w.order {
		for _, u := range w.jobs[id].Uses {
			if u.Link == LinkOutput {
				producer[u.LFN] = append(producer[u.LFN], id)
			}
		}
	}
	for _, id := range w.order {
		for _, u := range w.jobs[id].Uses {
			if u.Link != LinkInput {
				continue
			}
			for _, p := range producer[u.LFN] {
				if p == id {
					return fmt.Errorf("dax: job %q both produces and consumes %q", id, u.LFN)
				}
				if err := w.AddDependency(p, id); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (w *referenceWorkflow) TopoSort() ([]string, error) {
	indeg := make(map[string]int, len(w.jobs))
	for _, id := range w.order {
		indeg[id] = len(w.parents[id])
	}
	var ready []string
	for _, id := range w.order {
		if indeg[id] == 0 {
			ready = append(ready, id)
		}
	}
	out := make([]string, 0, len(w.jobs))
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		out = append(out, id)
		for _, c := range w.Children(id) {
			indeg[c]--
			if indeg[c] == 0 {
				ready = append(ready, c)
			}
		}
	}
	if len(out) != len(w.jobs) {
		return nil, fmt.Errorf("dax: workflow %q contains a cycle (%d of %d jobs orderable)",
			w.Name, len(out), len(w.jobs))
	}
	return out, nil
}

func (w *referenceWorkflow) Validate() error {
	_, err := w.ValidOrder()
	return err
}

func (w *referenceWorkflow) ValidOrder() ([]string, error) {
	if len(w.jobs) == 0 {
		return nil, fmt.Errorf("dax: workflow %q has no jobs", w.Name)
	}
	order, err := w.TopoSort()
	if err != nil {
		return nil, err
	}
	producer := make(map[string]string)
	for _, id := range w.order {
		for _, u := range w.jobs[id].Uses {
			if u.Link != LinkOutput {
				continue
			}
			if prev, dup := producer[u.LFN]; dup {
				return nil, fmt.Errorf("dax: file %q produced by both %q and %q", u.LFN, prev, id)
			}
			producer[u.LFN] = id
		}
	}
	return order, nil
}

func (w *referenceWorkflow) CriticalPathLength() (int, error) {
	order, err := w.TopoSort()
	if err != nil {
		return 0, err
	}
	depth := make(map[string]int, len(order))
	longest := 0
	for _, id := range order {
		d := 1
		for _, p := range w.Parents(id) {
			if depth[p]+1 > d {
				d = depth[p] + 1
			}
		}
		depth[id] = d
		if d > longest {
			longest = d
		}
	}
	return longest, nil
}

func (w *referenceWorkflow) Levels() ([][]string, error) {
	order, err := w.TopoSort()
	if err != nil {
		return nil, err
	}
	depth := make(map[string]int, len(order))
	maxd := 0
	for _, id := range order {
		d := 0
		for _, p := range w.Parents(id) {
			if depth[p]+1 > d {
				d = depth[p] + 1
			}
		}
		depth[id] = d
		if d > maxd {
			maxd = d
		}
	}
	levels := make([][]string, maxd+1)
	for _, id := range w.order {
		levels[depth[id]] = append(levels[depth[id]], id)
	}
	return levels, nil
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
