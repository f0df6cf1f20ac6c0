package planner

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"pegflow/internal/dax"
	"pegflow/internal/sim/rng"
)

// randomAbstract builds a random layered DAG: `width` jobs per level over
// `depth` levels, random forward edges, random runtimes, a couple of
// transformations per level.
func randomAbstract(t *testing.T, seed uint64, width, depth int) *dax.Workflow {
	t.Helper()
	r := rng.New(seed).Derive("cluster-dag")
	w := dax.New(fmt.Sprintf("rand-%d", seed))
	for d := 0; d < depth; d++ {
		for i := 0; i < width; i++ {
			id := fmt.Sprintf("j_%d_%d", d, i)
			tr := fmt.Sprintf("t%d", r.Intn(3))
			w.NewJob(id, tr).SetProfile("pegasus", "runtime",
				fmt.Sprintf("%d", 10+r.Intn(200)))
			if d > 0 {
				// At least one parent keeps the levels honest; extras at
				// random.
				p := fmt.Sprintf("j_%d_%d", d-1, r.Intn(width))
				if err := w.AddDependency(p, id); err != nil {
					t.Fatal(err)
				}
				for k := 0; k < width; k++ {
					if r.Float64() < 0.15 {
						if err := w.AddDependency(fmt.Sprintf("j_%d_%d", d-1, k), id); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
	}
	return w
}

// checkClusterInvariants verifies the tentpole's plan properties:
//
//   - partition: every job of the original plan appears in exactly one
//     output job (as itself or as a composite member);
//   - no inverted or dropped dependencies: every original edge maps to an
//     edge between the corresponding output jobs (or is internal, which
//     same-level grouping forbids);
//   - composites are single-site, single-transformation, within the member
//     cap, and their ExecSeconds is the sum of their members'.
func checkClusterInvariants(t *testing.T, orig, clustered *Plan, opts ClusterOptions) {
	t.Helper()

	groupOf := make(map[string]string)
	for _, j := range clustered.Jobs() {
		if len(j.Members) == 0 {
			groupOf[j.ID] = j.ID
			continue
		}
		if opts.MaxTasksPerJob > 0 && len(j.Members) > opts.MaxTasksPerJob {
			t.Errorf("composite %s has %d members, cap %d", j.ID, len(j.Members), opts.MaxTasksPerJob)
		}
		if len(j.Members) < 2 {
			t.Errorf("composite %s has %d members; singletons must stay unclustered", j.ID, len(j.Members))
		}
		var sum float64
		for _, m := range j.Members {
			if prev, dup := groupOf[m.TaskID]; dup {
				t.Errorf("task %s in both %s and %s", m.TaskID, prev, j.ID)
			}
			groupOf[m.TaskID] = j.ID
			mo := orig.Job(m.TaskID)
			if mo == nil {
				t.Fatalf("composite %s contains unknown task %s", j.ID, m.TaskID)
			}
			if mo.Site != j.Site {
				t.Errorf("composite %s at %s contains task %s bound to %s", j.ID, j.Site, m.TaskID, mo.Site)
			}
			if mo.Transformation != j.Transformation {
				t.Errorf("composite %s (%s) contains task %s of %s",
					j.ID, j.Transformation, m.TaskID, mo.Transformation)
			}
			if m.ExecSeconds != mo.ExecSeconds {
				t.Errorf("member %s exec %v, original %v", m.TaskID, m.ExecSeconds, mo.ExecSeconds)
			}
			sum += m.ExecSeconds
		}
		if math.Abs(sum-j.ExecSeconds) > 1e-9 {
			t.Errorf("composite %s ExecSeconds %v, member sum %v", j.ID, j.ExecSeconds, sum)
		}
		if opts.TargetJobSeconds > 0 {
			lastID := j.Members[len(j.Members)-1].TaskID
			if sum-orig.Job(lastID).ExecSeconds >= opts.TargetJobSeconds {
				t.Errorf("composite %s was already at target before its last member (%v ≥ %v)",
					j.ID, sum-orig.Job(lastID).ExecSeconds, opts.TargetJobSeconds)
			}
		}
	}

	// Partition: exactly the original job IDs, each exactly once.
	if len(groupOf) != orig.Graph().Len() {
		t.Errorf("clustered plan covers %d of %d original jobs", len(groupOf), orig.Graph().Len())
	}
	for _, j := range orig.Jobs() {
		if _, ok := groupOf[j.ID]; !ok {
			t.Errorf("original job %s missing from clustered plan", j.ID)
		}
	}

	// Dependency preservation.
	for _, gj := range orig.Graph().Jobs() {
		for _, parent := range orig.Graph().Parents(gj.ID) {
			gp, gc := groupOf[parent], groupOf[gj.ID]
			if gp == gc {
				t.Errorf("edge %s -> %s folded into one composite %s", parent, gj.ID, gp)
				continue
			}
			found := false
			for _, pp := range clustered.Graph().Parents(gc) {
				if pp == gp {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("edge %s -> %s lost: no edge %s -> %s in clustered plan",
					parent, gj.ID, gp, gc)
			}
		}
	}

	if _, err := clustered.Graph().TopoSort(); err != nil {
		t.Errorf("clustered plan not topologically sortable: %v", err)
	}
}

func TestClusterPropertyRandomDAGs(t *testing.T) {
	optsList := []ClusterOptions{
		{MaxTasksPerJob: 2},
		{MaxTasksPerJob: 5},
		{MaxTasksPerJob: 100},
		{TargetJobSeconds: 300},
		{MaxTasksPerJob: 4, TargetJobSeconds: 250},
	}
	for seed := uint64(0); seed < 12; seed++ {
		opts := optsList[seed%uint64(len(optsList))]
		t.Run(fmt.Sprintf("seed%d_max%d_target%.0f", seed, opts.MaxTasksPerJob, opts.TargetJobSeconds), func(t *testing.T) {
			cats := testCatalogs(t, "t0", "t1", "t2")
			abstract := randomAbstract(t, seed, 6, 4)
			var orig *Plan
			var err error
			if seed%2 == 0 {
				orig, err = New(abstract, cats, Options{Site: "osg"})
			} else {
				pol, perr := NewPolicy(PolicyRoundRobin)
				if perr != nil {
					t.Fatal(perr)
				}
				orig, err = NewMulti(abstract, cats, MultiOptions{
					Sites: []string{"sandhills", "osg"}, Policy: pol,
				})
			}
			if err != nil {
				t.Fatal(err)
			}
			clustered, err := Cluster(orig, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkClusterInvariants(t, orig, clustered, opts)

			// Determinism: clustering the same plan twice is identical.
			again, err := Cluster(orig, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(clustered.jobs, again.jobs) {
				t.Error("Cluster not deterministic: jobs differ between runs")
			}
		})
	}
}

func TestClusterFanAmortizesInstalls(t *testing.T) {
	cats := testCatalogs(t, "split", "run_cap3", "merge")
	orig, err := New(fanWorkflow(t, 10), cats, Options{Site: "osg"})
	if err != nil {
		t.Fatal(err)
	}
	clustered, err := Cluster(orig, ClusterOptions{MaxTasksPerJob: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkClusterInvariants(t, orig, clustered, ClusterOptions{MaxTasksPerJob: 4})
	// 10 run_cap3 tasks at one level pack into ceil(10/4) = 3 composites;
	// split and merge stay solo: 5 executable jobs, 5 installs where the
	// original paid 12.
	if got := clustered.Graph().Len(); got != 5 {
		t.Errorf("clustered plan has %d jobs, want 5", got)
	}
	installs := 0
	for _, j := range clustered.Jobs() {
		if j.NeedsInstall {
			installs++
		}
	}
	if installs != 5 {
		t.Errorf("clustered plan pays %d installs, want 5 (orig pays %d)", installs, orig.Graph().Len())
	}
	composites := 0
	for _, j := range clustered.Jobs() {
		if len(j.Members) > 0 {
			composites++
			if !strings.HasPrefix(j.ID, "cluster_run_cap3_osg_") {
				t.Errorf("unexpected composite ID %q", j.ID)
			}
			if j.Args != nil {
				t.Errorf("composite %s has args %v", j.ID, j.Args)
			}
		}
	}
	if composites != 3 {
		t.Errorf("%d composites, want 3", composites)
	}
}

func TestClusterTargetLeavesHeavyTasksAlone(t *testing.T) {
	w := dax.New("skewed")
	w.NewJob("big", "t0").SetProfile("pegasus", "runtime", "5000")
	for i := 0; i < 6; i++ {
		w.NewJob(fmt.Sprintf("small_%d", i), "t0").SetProfile("pegasus", "runtime", "50")
	}
	cats := testCatalogs(t, "t0")
	orig, err := New(w, cats, Options{Site: "osg"})
	if err != nil {
		t.Fatal(err)
	}
	clustered, err := Cluster(orig, ClusterOptions{TargetJobSeconds: 200})
	if err != nil {
		t.Fatal(err)
	}
	checkClusterInvariants(t, orig, clustered, ClusterOptions{TargetJobSeconds: 200})
	if big := clustered.Job("big"); big == nil || len(big.Members) != 0 {
		t.Errorf("heavy task was clustered: %+v", big)
	}
	// Six 50-second tasks pack 4 to a composite (sum reaches 200 on the
	// 4th), leaving one composite of 4 and one of 2.
	var sizes []int
	for _, j := range clustered.Jobs() {
		if len(j.Members) > 0 {
			sizes = append(sizes, len(j.Members))
		}
	}
	if !reflect.DeepEqual(sizes, []int{4, 2}) {
		t.Errorf("composite sizes = %v, want [4 2]", sizes)
	}
}

func TestClusterDisabledAndInvalid(t *testing.T) {
	cats := testCatalogs(t, "split", "run_cap3", "merge")
	orig, err := New(fanWorkflow(t, 4), cats, Options{Site: "osg"})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []ClusterOptions{{}, {MaxTasksPerJob: 1}} {
		got, err := Cluster(orig, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got != orig {
			t.Errorf("disabled options %+v did not return the plan unchanged", opts)
		}
	}
	if _, err := Cluster(orig, ClusterOptions{MaxTasksPerJob: -1}); err == nil {
		t.Error("negative MaxTasksPerJob accepted")
	}
	if _, err := Cluster(orig, ClusterOptions{TargetJobSeconds: -2}); err == nil {
		t.Error("negative TargetJobSeconds accepted")
	}
}

// Multi-site plans cluster within a site only: round-robin alternates the
// ten fan tasks between two sites, and every composite must stay pure.
func TestClusterMultiSitePurity(t *testing.T) {
	cats := testCatalogs(t, "split", "run_cap3", "merge")
	pol, err := NewPolicy(PolicyRoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := NewMulti(fanWorkflow(t, 10), cats, MultiOptions{
		Sites: []string{"sandhills", "osg"}, Policy: pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	clustered, err := Cluster(orig, ClusterOptions{MaxTasksPerJob: 8})
	if err != nil {
		t.Fatal(err)
	}
	checkClusterInvariants(t, orig, clustered, ClusterOptions{MaxTasksPerJob: 8})
	bySite := map[string]int{}
	for _, j := range clustered.Jobs() {
		if len(j.Members) > 0 {
			bySite[j.Site]++
		}
	}
	if bySite["sandhills"] == 0 || bySite["osg"] == 0 {
		t.Errorf("expected composites at both sites, got %v", bySite)
	}
}

// TestClusterFailsLoudly: the two states Cluster refuses to paper over — a
// composite ID an input job already carries, and an edge inside a composite,
// which only a broken level computation can produce.
func TestClusterFailsLoudly(t *testing.T) {
	cats := testCatalogs(t, "t0")
	w := dax.New("collide")
	for _, id := range []string{"a", "b", "cluster_t0_osg_l0_0"} {
		w.NewJob(id, "t0").SetProfile("pegasus", "runtime", "10")
	}
	p, err := New(w, cats, Options{Site: "osg"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Cluster(p, ClusterOptions{MaxTasksPerJob: 2}); err == nil || !strings.Contains(err.Error(), "collides") {
		t.Errorf("composite ID of an existing job: error %v, want a collision", err)
	}

	w = dax.New("chain")
	w.NewJob("parent", "t0")
	w.NewJob("child", "t0")
	if err := w.AddDependency("parent", "child"); err != nil {
		t.Fatal(err)
	}
	if p, err = New(w, cats, Options{Site: "osg"}); err != nil {
		t.Fatal(err)
	}
	broken := *p.index
	broken.Levels = [][]int32{{0, 1}}
	p.index = &broken
	if _, err := Cluster(p, ClusterOptions{MaxTasksPerJob: 2}); err == nil || !strings.Contains(err.Error(), "folded dependent jobs") {
		t.Errorf("parent and child on one level: error %v, want the intra-composite edge reported", err)
	}
}

var clusterSink *Plan

// TestAllocsCluster pins what a Cluster call allocates (run by CI as `go
// test -run 'TestAllocs'`): one ID string per composite, plus the pass's
// arenas and the output plan's index and slab — a count that does not move
// between a 500-wide and a 5000-wide fan, one site or two.
func TestAllocsCluster(t *testing.T) {
	const arenas = 32
	cats := testCatalogs(t, "split", "run_cap3", "merge")
	opts := ClusterOptions{MaxTasksPerJob: 16, TargetJobSeconds: 1800}
	for _, sites := range [][]string{{"osg"}, {"sandhills", "osg"}} {
		var fixed []float64
		for _, width := range []int{500, 5000} {
			plan, err := NewMulti(fanWorkflow(t, width), cats, MultiOptions{Sites: sites})
			if err != nil {
				t.Fatal(err)
			}
			clustered, err := Cluster(plan, opts)
			if err != nil {
				t.Fatal(err)
			}
			composites := 0
			for i := range clustered.jobs {
				if len(clustered.jobs[i].Members) > 0 {
					composites++
				}
			}
			if composites < width/16 {
				t.Fatalf("width %d: %d composites", width, composites)
			}
			got := testing.AllocsPerRun(10, func() { clusterSink, _ = Cluster(plan, opts) })
			fixed = append(fixed, got-float64(composites))
		}
		if fixed[0] != fixed[1] || fixed[0] > arenas {
			t.Errorf("sites %v: Cluster allocates %v beyond its composites at width 500 and %v at width 5000, want the same and at most %d",
				sites, fixed[0], fixed[1], arenas)
		}
	}
}
