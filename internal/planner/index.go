// Dense-integer plan indexing: an Index interns the plan's job IDs to
// contiguous integers at plan time — topological order, adjacency and
// indegrees precomputed once — and every slab job carries its own position
// (Job.Pos), which executors hand back on the job's terminal event. So the
// engine's per-run bookkeeping (indegree counts, attempt counters, job
// states) lives in index-addressed slices and its hot loop hashes no
// string; ByID serves lookups by name at plan time.
//
// The Index is the plan's topology of record — IDs, edges, degrees, levels,
// insertion order — and the only one: no dax.Workflow stands behind it
// (Plan.Graph derives one for whoever asks). It is immutable after
// construction, so a cloned plan shares its parent's Index while owning its
// own slab of job attributes. buildIndex is the one function that makes one;
// Resolved.materialize, Assemble and Cluster each hand it their jobs and
// edges as arrays.

package planner

import (
	"fmt"

	"pegflow/internal/spare"
)

// Index is the dense-integer view of a plan's DAG. Positions follow the
// deterministic topological order of the graph (Kahn's algorithm with
// insertion-order tie-breaking, exactly dax.Workflow.TopoSort); children
// of each position appear in sorted-ID order, matching the iteration order
// the engine previously obtained from Graph.Children. An Index is
// immutable once built and safe for concurrent readers.
type Index struct {
	// Order holds the job IDs in topological order; Order[i] is the job at
	// position i.
	Order []string
	// ByID maps a job ID to its position.
	ByID map[string]int32
	// Children lists, per position, the positions of the job's children in
	// sorted-ID order.
	Children [][]int32
	// Indegree is the number of parents per position.
	Indegree []int32
	// Levels groups the positions by depth — level 0 holds the roots, level
	// k the jobs whose deepest parent is at level k-1 — each level in graph
	// insertion order: dax.Workflow.Levels in positions, computed once so
	// that Cluster does not re-derive it per cell.
	Levels [][]int32
	// insertion lists the positions in graph insertion order: the order
	// Plan.Jobs walks, Levels are filled in and Cluster first meets each
	// output job in.
	insertion []int32
}

// Indexed returns the plan's dense index, built when the plan was
// constructed.
func (p *Plan) Indexed() *Index { return p.index }

// JobAt returns the planned job at topological position i of the index.
func (p *Plan) JobAt(i int32) *Job { return &p.jobs[i] }

// edgeList is a DAG handed to buildIndex as arrays. Jobs are named by their
// number in insertion order; the children of job o are kids[end[o-1]:end[o]]
// (from 0 for the first), each run in sorted-ID order.
type edgeList struct {
	// ids are the job IDs in insertion order.
	ids []string
	// kids is the children arena and end where each job's run stops.
	kids, end []int32
	// indegree counts each job's parents.
	indegree []int32
}

// children returns job o's run of kids.
func (e *edgeList) children(o int32) []int32 {
	if o == 0 {
		return e.kids[:e.end[0]]
	}
	return e.kids[e.end[o-1]:e.end[o]]
}

// buildIndex orders the jobs and writes their Index: what a dax.Workflow
// holding the same jobs, inserted in the same order, and the same edges gives
// through TopoSort, Children, Parents and Levels. It refuses a cycle and an
// ID that names two jobs. The Index's Children are cut from e.kids, which
// buildIndex rewrites in place; e is spent afterwards.
func buildIndex(e *edgeList) (*Index, error) {
	m := len(e.ids)
	// Kahn's algorithm as dax.Workflow.TopoSort runs it: roots in insertion
	// order, children released in sorted-ID order. order doubles as the
	// ready queue.
	order := make([]int32, 0, m)
	waiting := append([]int32(nil), e.indegree...)
	for o, n := range waiting {
		if n == 0 {
			order = append(order, int32(o))
		}
	}
	for head := 0; head < len(order); head++ {
		for _, oc := range e.children(order[head]) {
			if waiting[oc]--; waiting[oc] == 0 {
				order = append(order, oc)
			}
		}
	}
	if len(order) != m {
		return nil, fmt.Errorf("cycle (%d of %d jobs orderable)", len(order), m)
	}

	idx := &Index{
		Order:     make([]string, m),
		ByID:      make(map[string]int32, m),
		Children:  make([][]int32, m),
		Indegree:  make([]int32, m),
		insertion: make([]int32, m),
	}
	for i, o := range order {
		idx.insertion[o] = int32(i)
	}
	for i, o := range order {
		id := e.ids[o]
		if _, dup := idx.ByID[id]; dup {
			return nil, fmt.Errorf("job ID %q names two jobs", id)
		}
		idx.Order[i] = id
		idx.ByID[id] = int32(i)
		idx.Indegree[i] = e.indegree[o]
		// The children become positions where they lie; the order within a
		// run is already the sorted-ID order an Index promises.
		if kids := e.children(o); len(kids) > 0 {
			for k, oc := range kids {
				kids[k] = idx.insertion[oc]
			}
			idx.Children[i] = kids[:len(kids):len(kids)]
		}
	}
	idx.Levels = levelsOf(idx)
	return idx, nil
}

// levelsOf computes Index.Levels from the adjacency and the insertion order.
// Positions are topological, so one forward pass over the adjacency settles
// every depth; the levels are slices of one backing array, filled in the
// graph's insertion order.
func levelsOf(idx *Index) [][]int32 {
	depth := make([]int32, len(idx.Order))
	var deepest int32
	for i, kids := range idx.Children {
		for _, c := range kids {
			if depth[i]+1 > depth[c] {
				depth[c] = depth[i] + 1
			}
		}
		if depth[i] > deepest {
			deepest = depth[i]
		}
	}
	width := make([]int32, deepest+1)
	for _, d := range depth {
		width[d]++
	}
	flat := make([]int32, 0, len(depth))
	levels := make([][]int32, deepest+1)
	for d, n := range width {
		levels[d] = flat[len(flat) : len(flat) : len(flat)+int(n)]
		flat = flat[:len(flat)+int(n)]
	}
	for _, pos := range idx.insertion {
		levels[depth[pos]] = append(levels[depth[pos]], pos)
	}
	return levels
}

// alignJobs permutes the slab in place so that jobs[i] is the job at
// idx.Order[i], records i as that job's position, and clips every job's
// slices to their length so that an append through one clone can never reach
// a backing array another clone shares. Each swap puts one job in its final position, so the permutation
// costs at most len(jobs) swaps and no allocation.
func alignJobs(jobs []Job, idx *Index) error {
	if len(jobs) != len(idx.Order) {
		return fmt.Errorf("planner: %d planned jobs for %d graph jobs", len(jobs), len(idx.Order))
	}
	for i := range jobs {
		for {
			pos, ok := idx.ByID[jobs[i].ID]
			if !ok {
				return fmt.Errorf("planner: planned job %q is not in the executable graph", jobs[i].ID)
			}
			if int(pos) == i {
				break
			}
			if jobs[pos].ID == jobs[i].ID {
				return fmt.Errorf("planner: job %q planned twice", jobs[i].ID)
			}
			jobs[i], jobs[pos] = jobs[pos], jobs[i]
		}
		j := &jobs[i]
		j.pos = int32(i)
		j.Args = j.Args[:len(j.Args):len(j.Args)]
		j.Members = j.Members[:len(j.Members):len(j.Members)]
	}
	return nil
}

// Clone returns a plan that shares this plan's immutable shape — Index,
// Sites, origin and the backing arrays of every job's Args and Members — and
// owns a copy of the job slab, so a Job field written through one plan never
// shows in the other. The copy goes into the slab of a released plan when
// there is one (see Release). It costs two allocations and one memmove
// whatever the plan's size, one when a released slab is large enough: the
// per-retrieval step of the plan cache.
func (p *Plan) Clone() *Plan {
	if p.index == nil {
		panic("planner: Clone of a released plan")
	}
	var slab []Job
	if r := spareSlabs.Get(); r != nil {
		slab, r.jobs = r.jobs, nil
	}
	out := *p
	out.jobs = append(slab, p.jobs...)
	return &out
}

// spareSlabs holds released plans, each keeping only its emptied job slab
// for the next Clone to take: the released handle is what the list holds,
// so a release allocates nothing. It drops what it holds across two garbage
// collections (see package spare).
var spareSlabs spare.List[Plan]

// Release hands the plan's job slab to a later Clone. The caller gives up
// the plan and every *Job it handed out: the next clone overwrites the
// slab. The plan is unusable afterwards — its index and origin are nil and
// its slab empty, so any method panics, a second Release included. Only the
// owner of a private plan, such as a Clone nobody else holds, may release
// it.
func (p *Plan) Release() {
	if p.index == nil {
		panic("planner: Release of a released plan")
	}
	p.index, p.origin, p.Sites = nil, nil, nil
	p.jobs = p.jobs[:0]
	spareSlabs.Put(p)
}
