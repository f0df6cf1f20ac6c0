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

package planner

import (
	"fmt"

	"pegflow/internal/dax"
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

// clusterBucket accumulates the members of one composite under construction.
type clusterBucket struct {
	id    string
	site  string
	tr    string
	ids   []string
	exec  float64
	level int
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
	eligible := func(j *Job) bool {
		if j.Transformation == StageInTransformation {
			return false
		}
		// Composites of a previous Cluster pass are left alone.
		if len(j.Members) > 0 {
			return false
		}
		if len(opts.Transformations) == 0 {
			return true
		}
		for _, tr := range opts.Transformations {
			if tr == j.Transformation {
				return true
			}
		}
		return false
	}

	// The plan's index already holds the levels and the edges; a plan whose
	// graph was edited behind its back is re-indexed (and a cycle reported).
	idx, err := p.Indexed()
	if err != nil {
		return nil, fmt.Errorf("planner: clustering: %w", err)
	}

	// group maps every original job ID to its output job ID (itself when
	// unclustered, the composite ID otherwise).
	group := make(map[string]string, p.Graph.Len())
	var buckets []*clusterBucket
	byID := make(map[string]*clusterBucket)

	for li, level := range idx.Levels {
		// Open at most one bucket per (site, transformation) key; close it
		// when full (member cap) or heavy enough (runtime target).
		open := make(map[string]*clusterBucket)
		seq := make(map[string]int)
		for _, pos := range level {
			id, j := idx.Order[pos], &p.jobs[pos]
			if !eligible(j) {
				group[id] = id
				continue
			}
			if opts.TargetJobSeconds > 0 && j.ExecSeconds >= opts.TargetJobSeconds {
				group[id] = id
				continue
			}
			key := j.Site + "\x00" + j.Transformation
			b := open[key]
			if b == nil {
				b = &clusterBucket{
					id: fmt.Sprintf("cluster_%s_%s_l%d_%d",
						j.Transformation, j.Site, li, seq[key]),
					site: j.Site, tr: j.Transformation, level: li,
				}
				seq[key]++
				open[key] = b
				buckets = append(buckets, b)
				byID[b.id] = b
			}
			b.ids = append(b.ids, id)
			b.exec += j.ExecSeconds
			group[id] = b.id
			if (opts.MaxTasksPerJob > 0 && len(b.ids) >= opts.MaxTasksPerJob) ||
				(opts.TargetJobSeconds > 0 && b.exec >= opts.TargetJobSeconds) {
				delete(open, key)
			}
		}
	}

	// Unwrap singleton buckets: a composite of one task is just the task.
	kept := buckets[:0]
	for _, b := range buckets {
		if len(b.ids) == 1 {
			group[b.ids[0]] = b.ids[0]
			delete(byID, b.id)
			continue
		}
		kept = append(kept, b)
	}
	buckets = kept

	folded := 0
	for _, b := range buckets {
		folded += len(b.ids)
	}
	out := &Plan{
		Graph: dax.New(p.Graph.Name + "-clustered"),
		Site:  p.Site,
		Sites: p.Sites,
		jobs:  make([]Job, 0, len(p.jobs)-folded+len(buckets)),
	}

	emitted := make(map[string]bool)
	for _, gj := range p.Graph.Jobs() {
		gid := group[gj.ID]
		if emitted[gid] {
			continue
		}
		emitted[gid] = true
		if gid == gj.ID {
			cp := *gj
			if err := out.Graph.AddJob(&cp); err != nil {
				return nil, err
			}
			out.jobs = append(out.jobs, *p.Job(gj.ID))
			continue
		}
		b := byID[gid]
		if p.Graph.Job(b.id) != nil {
			return nil, fmt.Errorf("planner: clustering: composite ID %q collides with an existing job", b.id)
		}
		nj := &dax.Job{ID: b.id, Transformation: b.tr}
		cj := Job{
			ID:             b.id,
			Transformation: b.tr,
			Site:           b.site,
			ExecSeconds:    b.exec,
		}
		for _, mid := range b.ids {
			m := p.Job(mid)
			nj.Uses = append(nj.Uses, p.Graph.Job(mid).Uses...)
			if m.Priority > cj.Priority {
				cj.Priority = m.Priority
			}
			// All members resolve the same transformation at the same
			// site, so they share one install decision — the point of the
			// pass: the stack is staged once per composite, not per task.
			cj.NeedsInstall = m.NeedsInstall
			cj.InstallBytes = m.InstallBytes
			cj.InputBytes += m.InputBytes
			cj.OutputBytes += m.OutputBytes
			cj.Members = append(cj.Members, Member{TaskID: mid, ExecSeconds: m.ExecSeconds})
		}
		nj.Priority = cj.Priority
		if err := out.Graph.AddJob(nj); err != nil {
			return nil, err
		}
		out.jobs = append(out.jobs, cj)
	}

	// Rewire dependencies through the grouping, skipping intra-group
	// edges. Same-level grouping makes intra-group edges impossible; an
	// occurrence means the level computation is broken, so fail loudly
	// rather than emit a plan that silently dropped an ordering constraint.
	for pos, kids := range idx.Children {
		parent := idx.Order[pos]
		gp := group[parent]
		for _, c := range kids {
			child := idx.Order[c]
			gc := group[child]
			if gp == gc {
				return nil, fmt.Errorf(
					"planner: clustering folded dependent jobs %q -> %q into composite %q",
					parent, child, gp)
			}
			if err := out.Graph.AddDependency(gp, gc); err != nil {
				return nil, err
			}
		}
	}

	if err := out.finalize(); err != nil {
		return nil, fmt.Errorf("planner: clustered workflow broken: %w", err)
	}
	return out, nil
}
