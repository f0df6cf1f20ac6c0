// Horizontal task clustering, the planner's one clustering pass: merge small
// planned jobs into composite grid jobs so one dispatch latency and one
// software install are amortized over many payloads — Pegasus's answer
// (paper §III) to the opportunistic grid's dominant cost, per-job overhead.
//
// Cluster runs on an executable Plan, after site resolution, so it respects
// the per-job site bindings of multi-site plans: only jobs of the same
// transformation, bound to the same site, at the same DAG level are merged.
// Same-level grouping guarantees dependency compatibility — two jobs at one
// level are never connected by a path, so folding them into one node cannot
// invert or cycle the DAG.
//
// The pass reads the input plan's Index and writes the output plan's Index
// (through buildIndex, as every plan constructor does) and job slab, all in
// positions: the only strings made are the composite IDs. Every sweep cell
// that clusters runs it once per member plan.

package planner

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// ClusterOptions configures the clustering pass.
type ClusterOptions struct {
	// MaxTasksPerJob caps the payload tasks folded into one composite job.
	// 0 leaves the count unbounded (TargetJobSeconds alone closes
	// composites); 1 disables clustering.
	MaxTasksPerJob int
	// TargetJobSeconds closes a composite once its summed runtime
	// estimate reaches this many reference-speed seconds. Packing is
	// runtime-aware: a task whose own estimate already exceeds the target
	// stays unclustered, so clustering soaks up the many small tasks
	// (where per-job overhead dominates) without serializing the large
	// ones that set the makespan floor. 0 disables the time criterion.
	TargetJobSeconds float64
	// Transformations restricts clustering to the listed transformations;
	// empty means all are eligible. Synthesized stage-in jobs are never
	// clustered.
	Transformations []string
}

// Enabled reports whether the options ask for any clustering.
func (o ClusterOptions) Enabled() bool {
	return o.MaxTasksPerJob > 1 || (o.MaxTasksPerJob == 0 && o.TargetJobSeconds > 0)
}

// Validate checks the options.
func (o ClusterOptions) Validate() error {
	if o.MaxTasksPerJob < 0 {
		return fmt.Errorf("planner: negative MaxTasksPerJob %d", o.MaxTasksPerJob)
	}
	if o.TargetJobSeconds < 0 {
		return fmt.Errorf("planner: negative TargetJobSeconds %v", o.TargetJobSeconds)
	}
	return nil
}

// clusterKey is what the members of one composite share besides their level.
type clusterKey struct{ site, transformation string }

// openBucket is the bucketing pass's state for one key within one level: at
// most one bucket per key is open at a time.
type openBucket struct {
	// bucket is the open bucket, -1 when the key's next job starts a new one.
	bucket int32
	// seq numbers the key's buckets within the level, singletons included:
	// composite IDs keep the gaps that unwrapped singletons leave.
	seq int32
	// exec is the open bucket's summed runtime estimate.
	exec float64
}

// clusterBucket is one composite under construction.
type clusterBucket struct {
	// first is the position of the first member, whose site and
	// transformation are the composite's.
	first      int32
	level, seq int32
	size       int32
	// off is where the members start in clustering.memberPos; filled counts
	// those written so far.
	off, filled int32
	// out is the composite's output job, -1 until numberOutputs meets it.
	out int32
}

// clustering is the state of one Cluster call. Input jobs are named by their
// position in the input index, output jobs by a number in the insertion
// order of the clustered graph, until buildIndex gives them positions.
type clustering struct {
	// edgeList holds the output jobs' IDs and, once rewire has run, their
	// edges: what buildIndex takes.
	edgeList
	p   *Plan
	idx *Index
	// group maps an input position to its bucket (-1: stays as it is) and,
	// once numberOutputs has run, to its output job.
	group   []int32
	buckets []clusterBucket
	// composites counts the buckets of more than one job.
	composites int
	// memberPos holds the input positions of every composite's members, in
	// on-node execution order, bucket after bucket.
	memberPos []int32
	// from maps an output job to the input position it copies, or to
	// ^bucket for a composite.
	from []int32
}

// Cluster merges same-transformation, same-site, same-level jobs of the
// plan into composite jobs and returns the clustered plan (the input plan
// is not modified). Every original job appears in exactly one output job:
// either unchanged, or as a member of a composite whose ExecSeconds is the
// sum of its members'. Returns the plan unchanged when the options disable
// clustering.
func Cluster(p *Plan, opts ClusterOptions) (*Plan, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if !opts.Enabled() {
		return p, nil
	}
	c := &clustering{p: p, idx: p.index}
	c.bucketJobs(opts)
	c.layOutMembers()
	c.numberOutputs()
	if err := c.nameOutputs(); err != nil {
		return nil, err
	}
	if err := c.rewire(); err != nil {
		return nil, err
	}
	out, err := buildIndex(&c.edgeList)
	if err != nil {
		return nil, fmt.Errorf("planner: clustered workflow broken: %w", err)
	}
	return &Plan{
		Site:      p.Site,
		Sites:     p.Sites,
		origin:    p.origin,
		clustered: p.clustered + 1,
		index:     out,
		jobs:      c.buildJobs(out),
	}, nil
}

// bucketJobs walks the levels and assigns every eligible job to a bucket:
// at most one bucket per (site, transformation) is open within a level, and
// it closes when full (member cap) or heavy enough (runtime target).
func (c *clustering) bucketJobs(opts ClusterOptions) {
	eligible := func(j *Job) bool {
		if j.Transformation == StageInTransformation {
			return false
		}
		// Composites of a previous Cluster pass are left alone.
		if len(j.Members) > 0 {
			return false
		}
		// Runtime-aware packing: a task already at the target stays alone.
		if opts.TargetJobSeconds > 0 && j.ExecSeconds >= opts.TargetJobSeconds {
			return false
		}
		return len(opts.Transformations) == 0 || slices.Contains(opts.Transformations, j.Transformation)
	}
	n := len(c.idx.Order)
	c.group = make([]int32, n)
	// Every job may end up a bucket of its own, so n is the one capacity
	// that never grows.
	c.buckets = make([]clusterBucket, 0, n)
	keys := make(map[clusterKey]int32)
	var open []openBucket
	for li, level := range c.idx.Levels {
		for k := range open {
			open[k] = openBucket{bucket: -1}
		}
		for _, pos := range level {
			j := &c.p.jobs[pos]
			c.group[pos] = -1
			if !eligible(j) {
				continue
			}
			key := clusterKey{j.Site, j.Transformation}
			k, ok := keys[key]
			if !ok {
				k = int32(len(open))
				keys[key] = k
				open = append(open, openBucket{bucket: -1})
			}
			ob := &open[k]
			if ob.bucket < 0 {
				ob.bucket, ob.exec = int32(len(c.buckets)), 0
				c.buckets = append(c.buckets, clusterBucket{first: pos, level: int32(li), seq: ob.seq, out: -1})
				ob.seq++
			}
			b := &c.buckets[ob.bucket]
			c.group[pos] = ob.bucket
			b.size++
			ob.exec += j.ExecSeconds
			if (opts.MaxTasksPerJob > 0 && int(b.size) >= opts.MaxTasksPerJob) ||
				(opts.TargetJobSeconds > 0 && ob.exec >= opts.TargetJobSeconds) {
				ob.bucket = -1
			}
		}
	}
}

// layOutMembers unwraps singleton buckets — a composite of one task is just
// the task — and writes the members of the others, in the order bucketJobs
// met them, into one arena.
func (c *clustering) layOutMembers() {
	var folded int32
	for b := range c.buckets {
		if c.buckets[b].size > 1 {
			c.buckets[b].off = folded
			folded += c.buckets[b].size
			c.composites++
		}
	}
	c.memberPos = make([]int32, folded)
	for _, level := range c.idx.Levels {
		for _, pos := range level {
			g := c.group[pos]
			if g < 0 {
				continue
			}
			if b := &c.buckets[g]; b.size > 1 {
				c.memberPos[b.off+b.filled] = pos
				b.filled++
			} else {
				c.group[pos] = -1
			}
		}
	}
}

// numberOutputs numbers the output jobs in the order the input's insertion
// order first meets them — the order the clustered graph's jobs are inserted
// in — and points group at them.
func (c *clustering) numberOutputs() {
	c.from = make([]int32, 0, len(c.idx.Order)-len(c.memberPos)+c.composites)
	for _, pos := range c.idx.insertion {
		g := c.group[pos]
		if g < 0 {
			c.group[pos] = int32(len(c.from))
			c.from = append(c.from, pos)
			continue
		}
		b := &c.buckets[g]
		if b.out < 0 {
			b.out = int32(len(c.from))
			c.from = append(c.from, ^g)
		}
		c.group[pos] = b.out
	}
}

// members returns the input positions folded into output job o.
func (c *clustering) members(o int32) []int32 {
	if s := c.from[o]; s < 0 {
		b := &c.buckets[^s]
		return c.memberPos[b.off : b.off+b.size]
	}
	return c.from[o : o+1]
}

// nameOutputs gives every output job its ID: the input job's, or for a
// composite cluster_<transformation>_<site>_l<level>_<seq>.
func (c *clustering) nameOutputs() error {
	c.ids = make([]string, len(c.from))
	buf := make([]byte, 0, 64) // on the stack for IDs of the usual length
	for o, s := range c.from {
		if s >= 0 {
			c.ids[o] = c.idx.Order[s]
			continue
		}
		b := &c.buckets[^s]
		j := &c.p.jobs[b.first]
		buf = append(buf[:0], "cluster_"...)
		buf = append(append(buf, j.Transformation...), '_')
		buf = append(append(buf, j.Site...), "_l"...)
		buf = append(strconv.AppendInt(buf, int64(b.level), 10), '_')
		buf = strconv.AppendInt(buf, int64(b.seq), 10)
		if _, taken := c.idx.ByID[string(buf)]; taken {
			return fmt.Errorf("planner: clustering: composite ID %q collides with an existing job", string(buf))
		}
		c.ids[o] = string(buf)
	}
	return nil
}

// rewire maps the dependencies through the grouping: an output job's
// children are the distinct output jobs of its members' children. One walk
// counts them (and the indegrees), a second writes them into an arena of
// exactly that size, and each job's run is sorted by ID.
func (c *clustering) rewire() error {
	m := len(c.from)
	c.end = make([]int32, m)
	c.indegree = make([]int32, m)
	stamp := make([]int32, m)
	if err := c.walkEdges(stamp, 0, func(o, oc int32) {
		c.end[o]++
		c.indegree[oc]++
	}); err != nil {
		return err
	}
	// Counts become starts; writing the children advances them to the ends.
	var edges int32
	for o, n := range c.end {
		c.end[o] = edges
		edges += n
	}
	c.kids = make([]int32, edges)
	if err := c.walkEdges(stamp, int32(m), func(o, oc int32) {
		c.kids[c.end[o]] = oc
		c.end[o]++
	}); err != nil {
		return err
	}
	for o := range c.from {
		slices.SortFunc(c.children(int32(o)), func(a, b int32) int { return strings.Compare(c.ids[a], c.ids[b]) })
	}
	return nil
}

// walkEdges calls visit once per distinct edge between output jobs, parent
// by parent. stamp[oc] remembers the last parent that reached oc; base keeps
// the marks of one walk apart from the previous walk's.
func (c *clustering) walkEdges(stamp []int32, base int32, visit func(o, oc int32)) error {
	for o := range c.from {
		o := int32(o)
		mark := base + o + 1
		for _, pos := range c.members(o) {
			for _, child := range c.idx.Children[pos] {
				oc := c.group[child]
				if oc == o {
					// Same-level grouping makes intra-group edges
					// impossible; an occurrence means the level computation
					// is broken, so fail loudly rather than emit a plan that
					// silently dropped an ordering constraint.
					return fmt.Errorf(
						"planner: clustering folded dependent jobs %q -> %q into composite %q",
						c.idx.Order[pos], c.idx.Order[child], c.ids[o])
				}
				if stamp[oc] != mark {
					stamp[oc] = mark
					visit(o, oc)
				}
			}
		}
	}
	return nil
}

// buildJobs writes the clustered plan's slab in the order of its index:
// untouched jobs copied, composites summed over their members, whose Member
// entries are cut from one arena.
func (c *clustering) buildJobs(idx *Index) []Job {
	jobs := make([]Job, len(c.from))
	arena := make([]Member, 0, len(c.memberPos))
	for o, s := range c.from {
		at := idx.insertion[o]
		j := &jobs[at]
		if s >= 0 {
			// A job the pass leaves alone keeps every field but its
			// position, which is the clustered plan's.
			*j = c.p.jobs[s]
			j.pos = at
			continue
		}
		first := &c.p.jobs[c.buckets[^s].first]
		*j = Job{ID: c.ids[o], Transformation: first.Transformation, Site: first.Site, pos: at}
		start := len(arena)
		for _, pos := range c.members(int32(o)) {
			m := &c.p.jobs[pos]
			j.ExecSeconds += m.ExecSeconds
			if m.Priority > j.Priority {
				j.Priority = m.Priority
			}
			// All members resolve the same transformation at the same
			// site, so they share one install decision — the point of the
			// pass: the stack is staged once per composite, not per task.
			j.NeedsInstall = m.NeedsInstall
			j.InstallBytes = m.InstallBytes
			j.InputBytes += m.InputBytes
			j.OutputBytes += m.OutputBytes
			arena = append(arena, Member{TaskID: m.ID, ExecSeconds: m.ExecSeconds})
		}
		// Clipped like every slice of a slab job, so an append through one
		// clone cannot reach the next composite's members.
		j.Members = arena[start:len(arena):len(arena)]
	}
	return jobs
}
