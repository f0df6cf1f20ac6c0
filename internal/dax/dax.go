package dax

import (
	"fmt"
	"sort"
)

// Link describes how a job uses a file.
type Link int

const (
	// LinkInput marks a file the job consumes.
	LinkInput Link = iota
	// LinkOutput marks a file the job produces.
	LinkOutput
)

// String returns the DAX spelling of the link direction.
func (l Link) String() string {
	if l == LinkInput {
		return "input"
	}
	return "output"
}

// Use records one file usage by a job.
type Use struct {
	// LFN is the logical file name.
	LFN string
	// Link is the usage direction.
	Link Link
	// Size is the file size in bytes, when known (0 = unknown).
	Size int64
	// Transfer marks outputs that should be staged out of the site.
	Transfer bool
}

// Job is one abstract task: a logical transformation applied to logical
// files.
type Job struct {
	// ID uniquely identifies the job within the workflow.
	ID string
	// Transformation is the logical executable name (e.g. "run_cap3").
	Transformation string
	// Namespace and Version qualify the transformation.
	Namespace, Version string
	// Args are the command-line arguments.
	Args []string
	// Uses lists the job's file usages.
	Uses []Use
	// Profiles carry scheduler hints, keyed as "namespace::key"
	// (e.g. "pegasus::runtime" with an estimated runtime in seconds).
	Profiles map[string]string
	// Priority orders ready jobs in the meta-scheduler; higher runs first.
	Priority int
}

// AddInput appends an input usage.
func (j *Job) AddInput(lfn string, size int64) *Job {
	j.Uses = append(j.Uses, Use{LFN: lfn, Link: LinkInput, Size: size})
	return j
}

// AddOutput appends an output usage.
func (j *Job) AddOutput(lfn string, size int64) *Job {
	j.Uses = append(j.Uses, Use{LFN: lfn, Link: LinkOutput, Size: size})
	return j
}

// SetProfile records a profile entry under namespace::key.
func (j *Job) SetProfile(namespace, key, value string) *Job {
	if j.Profiles == nil {
		j.Profiles = make(map[string]string)
	}
	j.Profiles[namespace+"::"+key] = value
	return j
}

// Profile returns the profile value for namespace::key, or "".
func (j *Job) Profile(namespace, key string) string {
	return j.Profiles[namespace+"::"+key]
}

// Clone returns a deep copy of the job: the Uses, Args and Profiles of the
// copy are independent of the original's.
func (j *Job) Clone() *Job {
	cp := *j
	cp.Args = append([]string(nil), j.Args...)
	cp.Uses = append([]Use(nil), j.Uses...)
	if j.Profiles != nil {
		cp.Profiles = make(map[string]string, len(j.Profiles))
		for k, v := range j.Profiles {
			cp.Profiles[k] = v
		}
	}
	return &cp
}

// Inputs returns the logical names of the job's inputs, in declaration order.
func (j *Job) Inputs() []string {
	var out []string
	for _, u := range j.Uses {
		if u.Link == LinkInput {
			out = append(out, u.LFN)
		}
	}
	return out
}

// Outputs returns the logical names of the job's outputs, in declaration order.
func (j *Job) Outputs() []string {
	var out []string
	for _, u := range j.Uses {
		if u.Link == LinkOutput {
			out = append(out, u.LFN)
		}
	}
	return out
}

// Workflow is an abstract DAG of jobs (a Pegasus "ADAG").
type Workflow struct {
	// Name labels the workflow.
	Name string
	jobs map[string]*Job
	// order preserves insertion order for deterministic iteration.
	order []string
	// parents maps child ID → sorted set of parent IDs.
	parents map[string]map[string]bool
	// children maps parent ID → sorted set of child IDs.
	children map[string]map[string]bool
	// edges counts the distinct dependency edges, so Edges is a field read.
	edges int
}

// New returns an empty workflow with the given name.
func New(name string) *Workflow {
	return &Workflow{
		Name:     name,
		jobs:     make(map[string]*Job),
		parents:  make(map[string]map[string]bool),
		children: make(map[string]map[string]bool),
	}
}

// NewJob creates a job with the given ID and transformation, adds it to the
// workflow and returns it. It panics on duplicate IDs (always a builder
// bug); use AddJob for error-returning insertion.
func (w *Workflow) NewJob(id, transformation string) *Job {
	j := &Job{ID: id, Transformation: transformation}
	if err := w.AddJob(j); err != nil {
		panic(err)
	}
	return j
}

// AddJob inserts a job, rejecting empty and duplicate IDs.
func (w *Workflow) AddJob(j *Job) error {
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

// Job returns the job with the given ID, or nil.
func (w *Workflow) Job(id string) *Job { return w.jobs[id] }

// Len returns the number of jobs.
func (w *Workflow) Len() int { return len(w.jobs) }

// Jobs returns all jobs in insertion order.
func (w *Workflow) Jobs() []*Job {
	out := make([]*Job, 0, len(w.order))
	for _, id := range w.order {
		out = append(out, w.jobs[id])
	}
	return out
}

// Clone returns a deep copy of the workflow: jobs, edges and insertion
// order are all duplicated, so mutating either workflow never changes the
// other.
func (w *Workflow) Clone() *Workflow {
	out := New(w.Name)
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

// AddDependency records that child may only start after parent finishes.
// Both jobs must already exist. Self-dependencies are rejected; duplicate
// edges are idempotent.
func (w *Workflow) AddDependency(parent, child string) error {
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

// Parents returns the sorted parent IDs of a job.
func (w *Workflow) Parents(id string) []string { return sortedKeys(w.parents[id]) }

// Children returns the sorted child IDs of a job.
func (w *Workflow) Children(id string) []string { return sortedKeys(w.children[id]) }

// Roots returns jobs with no parents, in insertion order.
func (w *Workflow) Roots() []string {
	var out []string
	for _, id := range w.order {
		if len(w.parents[id]) == 0 {
			out = append(out, id)
		}
	}
	return out
}

// Leaves returns jobs with no children, in insertion order.
func (w *Workflow) Leaves() []string {
	var out []string
	for _, id := range w.order {
		if len(w.children[id]) == 0 {
			out = append(out, id)
		}
	}
	return out
}

// Edges returns the number of dependency edges.
func (w *Workflow) Edges() int { return w.edges }

// InferDependencies adds edges from every producer of a logical file to
// every consumer of that file. This is how Pegasus derives structure from
// data flow when explicit edges are omitted.
func (w *Workflow) InferDependencies() error {
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

// TopoSort returns the job IDs in a dependency-respecting order (Kahn's
// algorithm; ties broken by insertion order, so the result is
// deterministic). It returns an error if the graph has a cycle.
func (w *Workflow) TopoSort() ([]string, error) {
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

// Validate checks structural invariants: non-empty job set, acyclicity, and
// that no logical file has more than one producer.
func (w *Workflow) Validate() error {
	_, err := w.ValidOrder()
	return err
}

// ValidOrder is Validate for callers that go on to walk the workflow: it
// returns the topological order (TopoSort) its acyclicity check computed,
// which at a hundred thousand jobs is most of what validating costs.
func (w *Workflow) ValidOrder() ([]string, error) {
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

// CriticalPathLength returns the length (in job count) of the longest
// chain in the DAG — a lower bound on sequential depth.
func (w *Workflow) CriticalPathLength() (int, error) {
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

// Levels groups job IDs by depth: level 0 holds roots, level k holds jobs
// whose deepest parent is at level k-1. Used by horizontal task clustering.
func (w *Workflow) Levels() ([][]string, error) {
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
