package planner_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pegflow/internal/dax"
	"pegflow/internal/planner"
)

// fuzzPlan assembles a random layered plan: up to 12 jobs on each of up to 6
// levels, inserted in shuffled order (so insertion and topological order
// differ), every job below the top with a parent one level up and random
// extra parents anywhere above, and transformations (a stage-in among them),
// sites, runtimes, byte counts, priorities, install flags and file usages
// drawn per job.
func fuzzPlan(t *testing.T, r *rand.Rand, width, depth int) *planner.Plan {
	t.Helper()
	type slot struct{ d, i int }
	var slots []slot
	for d := 0; d < depth; d++ {
		for i := 0; i < width; i++ {
			slots = append(slots, slot{d, i})
		}
	}
	r.Shuffle(len(slots), func(a, b int) { slots[a], slots[b] = slots[b], slots[a] })
	id := func(d, i int) string { return fmt.Sprintf("j%dx%d", d, i) }

	g := dax.New("fuzz")
	jobs := make([]planner.Job, 0, len(slots))
	for _, s := range slots {
		tr := fmt.Sprintf("t%d", r.Intn(3))
		if s.d == 0 && r.Intn(8) == 0 {
			tr = planner.StageInTransformation
		}
		j := planner.Job{
			ID:             id(s.d, s.i),
			Transformation: tr,
			Site:           fmt.Sprintf("s%d", r.Intn(2)),
			Priority:       r.Intn(4),
			ExecSeconds:    float64(r.Intn(4000)) / 8,
			InputBytes:     int64(r.Intn(1 << 20)),
			OutputBytes:    int64(r.Intn(1 << 20)),
		}
		if r.Intn(2) == 0 {
			j.NeedsInstall, j.InstallBytes = true, int64(1+r.Intn(1<<20))
		}
		if r.Intn(3) == 0 {
			j.Args = []string{"-x", j.ID}
		}
		gj := g.NewJob(j.ID, tr)
		gj.Priority = j.Priority
		for k := r.Intn(3); k > 0; k-- {
			gj.AddInput(fmt.Sprintf("in_%s_%d", j.ID, k), int64(k))
		}
		if r.Intn(2) == 0 {
			gj.AddOutput("out_"+j.ID, 7)
		}
		jobs = append(jobs, j)
	}
	for _, s := range slots {
		if s.d == 0 {
			continue
		}
		if err := g.AddDependency(id(s.d-1, r.Intn(width)), id(s.d, s.i)); err != nil {
			t.Fatal(err)
		}
		for k := r.Intn(3); k > 0; k-- {
			if err := g.AddDependency(id(r.Intn(s.d), r.Intn(width)), id(s.d, s.i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	p, err := planner.Assemble(g, "s0,s1", jobs)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// FuzzCluster: on seeded random layered plans under random options, every
// input job lands in exactly one output job, no composite spans a site, a
// transformation or a level, runtimes and bytes are conserved, the output
// index is a topological order with consistent indegrees, and the whole
// plan equals the graph-rebuilding reference's.
func FuzzCluster(f *testing.F) {
	f.Add(uint64(1), uint8(6), uint8(4), uint8(2), uint16(0), false)
	f.Add(uint64(2), uint8(12), uint8(3), uint8(16), uint16(0), true)
	f.Add(uint64(3), uint8(9), uint8(6), uint8(0), uint16(300), false)
	f.Add(uint64(4), uint8(11), uint8(2), uint8(4), uint16(250), true)
	f.Add(uint64(5), uint8(1), uint8(1), uint8(3), uint16(0), false)
	f.Add(uint64(6), uint8(12), uint8(6), uint8(1), uint16(900), false)
	f.Fuzz(func(t *testing.T, seed uint64, width, depth, maxTasks uint8, target uint16, filter bool) {
		r := rand.New(rand.NewSource(int64(seed)))
		p := fuzzPlan(t, r, 1+int(width)%12, 1+int(depth)%6)
		opts := planner.ClusterOptions{MaxTasksPerJob: int(maxTasks) % 20, TargetJobSeconds: float64(target % 1500)}
		if filter {
			opts.Transformations = []string{"t0", "t2"}
		}
		if !opts.Enabled() {
			if got, err := planner.Cluster(p, opts); err != nil || got != p {
				t.Fatalf("disabled options %+v: plan %p, error %v; want the input %p back", opts, got, err, p)
			}
			return
		}
		got := requireClusterEqualsReference(t, fmt.Sprintf("seed %d %+v", seed, opts), p, opts)

		in := p.Indexed()
		level := make(map[string]int, p.Len())
		for li, l := range in.Levels {
			for _, pos := range l {
				level[in.Order[pos]] = li
			}
		}
		seen := make(map[string]bool, p.Len())
		fold := func(out *planner.Job, id string) *planner.Job {
			if seen[id] {
				t.Fatalf("job %s appears twice in the clustered plan", id)
			}
			seen[id] = true
			j := p.Job(id)
			if j == nil {
				t.Fatalf("output job %s holds %s, which the input plan lacks", out.ID, id)
			}
			return j
		}
		var inBytes, outBytes, wantIn, wantOut int64
		for _, j := range got.Jobs() {
			inBytes, outBytes = inBytes+j.InputBytes, outBytes+j.OutputBytes
			if len(j.Members) == 0 {
				if in := fold(j, j.ID); !reflect.DeepEqual(in, j) {
					t.Errorf("untouched job %s changed: %+v, was %+v", j.ID, *j, *in)
				}
				continue
			}
			if len(j.Members) < 2 || (opts.MaxTasksPerJob > 0 && len(j.Members) > opts.MaxTasksPerJob) {
				t.Errorf("composite %s has %d members under %+v", j.ID, len(j.Members), opts)
			}
			var exec float64
			for _, m := range j.Members {
				mj := fold(j, m.TaskID)
				if mj.Site != j.Site || mj.Transformation != j.Transformation || level[mj.ID] != level[j.Members[0].TaskID] {
					t.Errorf("composite %s (%s at %s) holds %s (%s at %s, level %d, first member's %d)", j.ID, j.Transformation, j.Site,
						mj.ID, mj.Transformation, mj.Site, level[mj.ID], level[j.Members[0].TaskID])
				}
				if m.ExecSeconds != mj.ExecSeconds {
					t.Errorf("member %s runs %v s, the job %v s", m.TaskID, m.ExecSeconds, mj.ExecSeconds)
				}
				exec += m.ExecSeconds
			}
			if exec != j.ExecSeconds {
				t.Errorf("composite %s: %v s, its members sum to %v s", j.ID, j.ExecSeconds, exec)
			}
		}
		for _, j := range p.Jobs() {
			wantIn, wantOut = wantIn+j.InputBytes, wantOut+j.OutputBytes
		}
		if len(seen) != p.Len() || inBytes != wantIn || outBytes != wantOut {
			t.Errorf("clustered plan holds %d of %d jobs, %d/%d input and %d/%d output bytes",
				len(seen), p.Len(), inBytes, wantIn, outBytes, wantOut)
		}

		idx := got.Indexed()
		indegree := make([]int32, len(idx.Order))
		for pos, kids := range idx.Children {
			for _, c := range kids {
				if int(c) <= pos {
					t.Errorf("edge %s -> %s runs against the index order", idx.Order[pos], idx.Order[c])
				}
				indegree[c]++
			}
		}
		for pos, n := range indegree {
			if idx.Indegree[pos] != n {
				t.Errorf("%s: indegree %d, %d edges arrive", idx.Order[pos], idx.Indegree[pos], n)
			}
		}
	})
}
