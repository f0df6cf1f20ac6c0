// Dense-integer plan indexing: the engine's per-run bookkeeping (indegree
// counts, attempt counters, completion flags) used to live in string-keyed
// maps consulted on every dispatch. An Index interns the plan's job IDs to
// contiguous integers at plan time — topological order, adjacency and
// indegrees precomputed once — so the engine's hot loop runs on
// index-addressed slices with a single map lookup per executor event.
//
// The Index captures topology only (IDs, edges, degrees) and is immutable
// after construction, so a cloned plan shares its parent's Index — and its
// graph — while owning its own slab of job attributes. For a clustered plan
// the Index is the topology of record: Cluster writes one directly and no
// dax.Workflow stands behind it (Plan.Graph derives one on demand).

package planner

import (
	"fmt"
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
	// edges is the number of dependency edges: Graph.Edges() at build time,
	// for staleness detection.
	edges int
}

// Indexed returns the plan's dense index, built when the plan was
// constructed. A plan's graph is immutable after construction; the job and
// edge counts are still compared so that a graph edited behind the plan's
// back is re-validated (and a cycle reported) instead of run on a stale
// index. A clustered plan has no graph to go stale against.
func (p *Plan) Indexed() (*Index, error) {
	if g := p.graph; g != nil && (p.index == nil || len(p.index.Order) != g.Len() || p.index.edges != g.Edges()) {
		if err := p.finalize(); err != nil {
			return nil, err
		}
	}
	return p.index, nil
}

// JobAt returns the planned job at topological position i of the index.
func (p *Plan) JobAt(i int32) *Job { return &p.jobs[i] }

// finalize validates the executable graph (cycle check via TopoSort),
// builds the dense index and moves the job slab into index order.
func (p *Plan) finalize() error {
	g := p.graph
	order, err := g.TopoSort()
	if err != nil {
		return fmt.Errorf("planner: executable workflow broken: %w", err)
	}
	idx := &Index{
		Order:     order,
		ByID:      make(map[string]int32, len(order)),
		Children:  make([][]int32, len(order)),
		Indegree:  make([]int32, len(order)),
		insertion: make([]int32, 0, len(order)),
		edges:     g.Edges(),
	}
	for i, id := range order {
		idx.ByID[id] = int32(i)
	}
	for i, id := range order {
		idx.Indegree[i] = int32(len(g.Parents(id)))
		kids := g.Children(id)
		if len(kids) == 0 {
			continue
		}
		cs := make([]int32, len(kids))
		for k, c := range kids {
			cs[k] = idx.ByID[c]
		}
		idx.Children[i] = cs
	}
	for _, j := range g.Jobs() {
		idx.insertion = append(idx.insertion, idx.ByID[j.ID])
	}
	idx.Levels = levelsOf(idx)
	if err := alignJobs(p.jobs, idx); err != nil {
		return err
	}
	p.index = idx
	return nil
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
// idx.Order[i], and clips every job's slices to their length so that an
// append through one clone can never reach a backing array another clone
// shares. Each swap puts one job in its final position, so the permutation
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
		j.Args = j.Args[:len(j.Args):len(j.Args)]
		j.Members = j.Members[:len(j.Members):len(j.Members)]
	}
	return nil
}

// Clone returns a plan that shares this plan's immutable shape — graph,
// Index, Sites and the backing arrays of every job's Args and Members — and
// owns a copy of the job slab, so a Job field written through one plan never
// shows in the other. It costs two allocations and one memmove whatever the
// plan's size: the per-retrieval step of the plan cache.
func (p *Plan) Clone() *Plan {
	out := *p
	out.jobs = append([]Job(nil), p.jobs...)
	return &out
}
