package dax

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync/atomic"
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

// Workflow is an abstract DAG of jobs (a Pegasus "ADAG"). A job's number is
// its index in insertion order; the structure is stored as the jobs and the
// edges by number, and every query reads a topology derived from them (see
// the package documentation).
type Workflow struct {
	// Name labels the workflow.
	Name string
	// jobs holds the jobs in insertion order: jobs[k] is job number k.
	jobs []*Job
	byID map[string]int32
	// edges records every AddDependency, duplicates included.
	edges []edge
	// topo is the topology derived from jobs and edges on first read, and
	// cleared by every AddJob and AddDependency.
	topo atomic.Pointer[topology]
}

// edge is one dependency by job number.
type edge struct{ parent, child int32 }

// topology is a workflow's structure by job number in compressed sparse rows:
// job k's children are child[childAt[k]:childAt[k+1]] and its parents
// parent[parentAt[k]:parentAt[k+1]], each run sorted by ID and free of
// duplicates, so len(child) is the distinct edge count. order is the
// topological order TopoSort returns, by number; it is shorter than the job
// count when the graph has a cycle. A topology is immutable once published.
type topology struct {
	childAt, child   []int32
	parentAt, parent []int32
	order            []int32
}

// children returns job k's children by number, sorted by ID.
func (t *topology) children(k int32) []int32 { return t.child[t.childAt[k]:t.childAt[k+1]] }

// parents returns job k's parents by number, sorted by ID.
func (t *topology) parents(k int32) []int32 { return t.parent[t.parentAt[k]:t.parentAt[k+1]] }

// New returns an empty workflow with the given name.
func New(name string) *Workflow {
	return &Workflow{Name: name, byID: make(map[string]int32)}
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
	if _, dup := w.byID[j.ID]; dup {
		return fmt.Errorf("dax: duplicate job ID %q", j.ID)
	}
	w.byID[j.ID] = int32(len(w.jobs))
	w.jobs = append(w.jobs, j)
	w.edited()
	return nil
}

// edited drops the derived topology; the next read derives it afresh.
func (w *Workflow) edited() {
	if w.topo.Load() != nil {
		w.topo.Store(nil)
	}
}

// Job returns the job with the given ID, or nil.
func (w *Workflow) Job(id string) *Job {
	if k, ok := w.byID[id]; ok {
		return w.jobs[k]
	}
	return nil
}

// Len returns the number of jobs.
func (w *Workflow) Len() int { return len(w.jobs) }

// Jobs returns all jobs in insertion order.
func (w *Workflow) Jobs() []*Job { return append(make([]*Job, 0, len(w.jobs)), w.jobs...) }

// Clone returns a deep copy of the workflow: jobs, edges and insertion
// order are all duplicated, so mutating either workflow never changes the
// other.
func (w *Workflow) Clone() *Workflow {
	out := &Workflow{Name: w.Name, jobs: make([]*Job, len(w.jobs)), byID: maps.Clone(w.byID), edges: slices.Clone(w.edges)}
	for k, j := range w.jobs {
		out.jobs[k] = j.Clone()
	}
	// A topology is immutable and derived from what the copy holds equally:
	// the IDs, their insertion order and the edges.
	out.topo.Store(w.topo.Load())
	return out
}

// AddDependency records that child may only start after parent finishes.
// Both jobs must already exist. Self-dependencies are rejected; duplicate
// edges are idempotent.
func (w *Workflow) AddDependency(parent, child string) error {
	if parent == child {
		return fmt.Errorf("dax: self-dependency on %q", parent)
	}
	p, ok := w.byID[parent]
	if !ok {
		return fmt.Errorf("dax: dependency references unknown parent %q", parent)
	}
	c, ok := w.byID[child]
	if !ok {
		return fmt.Errorf("dax: dependency references unknown child %q", child)
	}
	w.link(p, c)
	return nil
}

// link records the edge p → c between two distinct jobs.
func (w *Workflow) link(p, c int32) {
	w.edges = append(w.edges, edge{p, c})
	w.edited()
}

// Parents returns the sorted parent IDs of a job.
func (w *Workflow) Parents(id string) []string {
	if k, ok := w.byID[id]; ok {
		return w.ids(w.topology().parents(k))
	}
	return nil
}

// Children returns the sorted child IDs of a job.
func (w *Workflow) Children(id string) []string {
	if k, ok := w.byID[id]; ok {
		return w.ids(w.topology().children(k))
	}
	return nil
}

// ids returns the IDs of the numbered jobs, or nil for none.
func (w *Workflow) ids(nums []int32) []string {
	if len(nums) == 0 {
		return nil
	}
	out := make([]string, len(nums))
	for i, k := range nums {
		out[i] = w.jobs[k].ID
	}
	return out
}

// Edges returns the number of dependency edges.
func (w *Workflow) Edges() int { return len(w.topology().child) }

// TopoSort returns the job IDs in a dependency-respecting order (Kahn's
// algorithm; ties broken by insertion order, so the result is
// deterministic). It returns an error if the graph has a cycle.
func (w *Workflow) TopoSort() ([]string, error) {
	t := w.topology()
	if err := w.acyclic(t); err != nil {
		return nil, err
	}
	out := make([]string, len(t.order))
	for i, k := range t.order {
		out[i] = w.jobs[k].ID
	}
	return out, nil
}

// acyclic reports the cycle that keeps t's order short of every job.
func (w *Workflow) acyclic(t *topology) error {
	if len(t.order) != len(w.jobs) {
		return fmt.Errorf("dax: workflow %q contains a cycle (%d of %d jobs orderable)",
			w.Name, len(t.order), len(w.jobs))
	}
	return nil
}

// Validate checks structural invariants: non-empty job set, acyclicity, and
// that no logical file has more than one producer.
func (w *Workflow) Validate() error {
	_, err := w.valid()
	return err
}

// valid runs Validate's checks and returns the topology they passed on.
func (w *Workflow) valid() (*topology, error) {
	if len(w.jobs) == 0 {
		return nil, fmt.Errorf("dax: workflow %q has no jobs", w.Name)
	}
	t := w.topology()
	if err := w.acyclic(t); err != nil {
		return nil, err
	}
	outputs := 0
	for _, j := range w.jobs {
		for _, u := range j.Uses {
			if u.Link == LinkOutput {
				outputs++
			}
		}
	}
	producer := make(map[string]int32, outputs)
	for k, j := range w.jobs {
		for _, u := range j.Uses {
			if u.Link != LinkOutput {
				continue
			}
			if prev, dup := producer[u.LFN]; dup {
				return nil, fmt.Errorf("dax: file %q produced by both %q and %q", u.LFN, w.jobs[prev].ID, j.ID)
			}
			producer[u.LFN] = int32(k)
		}
	}
	return t, nil
}

// CriticalPathLength returns the length (in job count) of the longest
// chain in the DAG — a lower bound on sequential depth.
func (w *Workflow) CriticalPathLength() (int, error) {
	depth, err := w.depths()
	if err != nil {
		return 0, err
	}
	longest := 0
	for _, d := range depth {
		longest = max(longest, int(d)+1)
	}
	return longest, nil
}

// Levels groups job IDs by depth: level 0 holds roots, level k holds jobs
// whose deepest parent is at level k-1. Used by horizontal task clustering.
func (w *Workflow) Levels() ([][]string, error) {
	depth, err := w.depths()
	if err != nil {
		return nil, err
	}
	var deepest int32
	for _, d := range depth {
		deepest = max(deepest, d)
	}
	levels := make([][]string, deepest+1)
	for k, d := range depth {
		levels[d] = append(levels[d], w.jobs[k].ID)
	}
	return levels, nil
}

// depths returns every job's level by number: 0 for a root, one below its
// deepest parent otherwise.
func (w *Workflow) depths() ([]int32, error) {
	t := w.topology()
	if err := w.acyclic(t); err != nil {
		return nil, err
	}
	depth := make([]int32, len(w.jobs))
	for _, k := range t.order {
		for _, c := range t.children(k) {
			depth[c] = max(depth[c], depth[k]+1)
		}
	}
	return depth, nil
}

// topology returns the derived topology, deriving and publishing it on the
// first read after an edit. Readers that race here each derive an equal
// value, so whichever is published last is as good as the first.
func (w *Workflow) topology() *topology {
	if t := w.topo.Load(); t != nil {
		return t
	}
	t := derive(w.jobs, w.edges)
	w.topo.Store(t)
	return t
}

// derive builds the topology of the numbered jobs and edges. One sort of the
// jobs by ID orders every run: walking the jobs in ID order and appending
// each to its parents' runs leaves each run of children sorted, with a
// duplicate edge right beside its twin, and the runs of parents are filled
// the same way from the de-duplicated children.
func derive(jobs []*Job, edges []edge) *topology {
	n := len(jobs)
	t := &topology{childAt: make([]int32, n+1), parentAt: make([]int32, n+1)}
	cursor := make([]int32, n)
	if len(edges) > 0 {
		byName := make([]int32, n)
		for k := range byName {
			byName[k] = int32(k)
		}
		slices.SortFunc(byName, func(a, b int32) int { return strings.Compare(jobs[a].ID, jobs[b].ID) })

		// Each edge's parent, bucketed by child, in edge order.
		raw := make([]int32, len(edges))
		for _, e := range edges {
			t.parentAt[e.child+1]++
		}
		offsets(t.parentAt)
		copy(cursor, t.parentAt)
		for _, e := range edges {
			raw[cursor[e.child]] = e.parent
			cursor[e.child]++
		}

		child := make([]int32, len(edges))
		for _, e := range edges {
			t.childAt[e.parent+1]++
		}
		offsets(t.childAt)
		copy(cursor, t.childAt)
		for _, c := range byName {
			for _, p := range raw[t.parentAt[c]:t.parentAt[c+1]] {
				child[cursor[p]] = c
				cursor[p]++
			}
		}
		// Compact the runs in place, dropping each duplicate.
		kept := int32(0)
		for k := range n {
			lo, hi := t.childAt[k], t.childAt[k+1]
			t.childAt[k] = kept
			last := int32(-1)
			for _, c := range child[lo:hi] {
				if c != last {
					child[kept], last = c, c
					kept++
				}
			}
		}
		t.childAt[n] = kept
		t.child = child[:kept]

		// raw is spent: its array takes the parents.
		clear(t.parentAt)
		for _, c := range t.child {
			t.parentAt[c+1]++
		}
		offsets(t.parentAt)
		copy(cursor, t.parentAt)
		t.parent = raw[:kept]
		for _, p := range byName {
			for _, c := range t.children(p) {
				t.parent[cursor[c]] = p
				cursor[c]++
			}
		}
	}

	// Kahn's algorithm: roots in insertion order, children released in ID
	// order. order doubles as the queue and cursor counts each job's parents
	// not yet ordered.
	order := make([]int32, 0, n)
	for k := range n {
		if cursor[k] = t.parentAt[k+1] - t.parentAt[k]; cursor[k] == 0 {
			order = append(order, int32(k))
		}
	}
	for head := 0; head < len(order); head++ {
		for _, c := range t.children(order[head]) {
			if cursor[c]--; cursor[c] == 0 {
				order = append(order, c)
			}
		}
	}
	t.order = order
	return t
}

// offsets turns per-job counts, stored one slot to the right, into the start
// of each job's run.
func offsets(at []int32) {
	for i := 1; i < len(at); i++ {
		at[i] += at[i-1]
	}
}

// Dense is a read-only view of a validated workflow by job number — a job's
// number is its index in Jobs() — for a planner that walks every job and
// edge: it reads the derived topology where the string API builds a slice of
// IDs per query and looks each one up again. It covers the jobs and edges the
// workflow held when it was taken and shares their storage: nothing it
// returns may be written.
type Dense struct {
	jobs []*Job
	byID map[string]int32
	t    *topology
}

// Dense returns the workflow's view by number after the checks of Validate.
func (w *Workflow) Dense() (Dense, error) {
	t, err := w.valid()
	if err != nil {
		return Dense{}, err
	}
	return Dense{jobs: w.jobs[:len(w.jobs):len(w.jobs)], byID: w.byID, t: t}, nil
}

// Job returns job number k.
func (d Dense) Job(k int32) *Job { return d.jobs[k] }

// Number returns the number of the job with the given ID.
func (d Dense) Number(id string) (int32, bool) {
	k, ok := d.byID[id]
	return k, ok && int(k) < len(d.jobs)
}

// Order returns every job number in TopoSort's order.
func (d Dense) Order() []int32 { return d.t.order }

// Children returns job k's children by number, in ID order.
func (d Dense) Children(k int32) []int32 { return d.t.children(k) }
