package planner

import (
	"fmt"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"pegflow/internal/catalog"
	"pegflow/internal/dax"
	"pegflow/internal/sim/rng"
)

// externalDAG is a random layered DAG whose roots each read an external
// input, so where a policy puts the roots decides the stage-in jobs.
func externalDAG(t *testing.T, seed uint64) (*dax.Workflow, Catalogs) {
	t.Helper()
	w := randomAbstract(t, seed, 5, 4)
	cats := testCatalogs(t, "t0", "t1", "t2")
	for i, id := range roots(w) {
		lfn := fmt.Sprintf("ext_%d", i%3)
		w.Job(id).AddInput(lfn, int64(1+i)<<20)
		if !cats.Replicas.Has(lfn) {
			if err := cats.Replicas.Add(lfn, catalog.Replica{Site: "local", PFN: "/d/" + lfn}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return w, cats
}

// withRuntimes returns a copy of the workflow whose jobs carry the given
// runtime profiles, the reference input for NewMulti.
func withRuntimes(w *dax.Workflow, seconds map[string]float64) *dax.Workflow {
	out := w.Clone()
	for id, s := range seconds {
		out.Job(id).SetProfile("pegasus", "runtime", strconv.FormatFloat(s, 'f', -1, 64))
	}
	return out
}

// drawRuntimes gives every job of the Resolved a whole-second runtime, as
// the override vectors Plan takes and as the map withRuntimes takes.
func drawRuntimes(r *Resolved, seed uint64) (pos []int32, secs []float64, byID map[string]float64) {
	stream := rng.New(seed).Derive("runtimes")
	byID = make(map[string]float64, len(r.jobs))
	for k := range r.jobs {
		s := float64(1 + stream.Intn(5000))
		pos, secs = append(pos, int32(k)), append(secs, s)
		byID[r.jobs[k].ID] = s
	}
	return pos, secs, byID
}

func policyFor(t *testing.T, k int) SitePolicy {
	t.Helper()
	names := PolicyNames()
	pol, err := NewPolicy(names[k%len(names)])
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// TestResolvedPlanEqualsNewMulti: one Resolved, planned under many runtime
// vectors and all policies, gives exactly the plan NewMulti builds from a
// workflow carrying those runtimes — including the stage-in jobs, which move
// with the roots' placement — and materializes one graph per distinct
// stage-in signature, not one per call.
func TestResolvedPlanEqualsNewMulti(t *testing.T) {
	for dag := uint64(1); dag <= 4; dag++ {
		w, cats := externalDAG(t, dag)
		opts := MultiOptions{Sites: []string{"sandhills", "osg"}, AddStageIn: true}
		r, err := Resolve(w, cats, opts)
		if err != nil {
			t.Fatal(err)
		}
		materialized := 0
		r.Materialized = func() { materialized++ }
		signatures := map[string]bool{}
		for trial := 0; trial < 24; trial++ {
			pos, secs, byID := drawRuntimes(r, dag*100+uint64(trial))
			got, err := r.Plan(policyFor(t, trial), pos, secs)
			if err != nil {
				t.Fatal(err)
			}
			ref := opts
			ref.Policy = policyFor(t, trial)
			want, err := NewMulti(withRuntimes(w, byID), cats, ref)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := snapshot(t, want), snapshot(t, got); !reflect.DeepEqual(a, b) {
				t.Fatalf("dag %d trial %d: Resolved.Plan differs from NewMulti", dag, trial)
			}
			sig := ""
			for _, id := range roots(w) {
				sig += got.Job(id).Site + ","
			}
			signatures[sig] = true
		}
		if len(signatures) < 3 {
			t.Errorf("dag %d: only %d stage-in signatures in 24 trials: the memo is not exercised", dag, len(signatures))
		}
		if materialized != len(signatures) {
			t.Errorf("dag %d: %d graphs materialized for %d stage-in signatures", dag, materialized, len(signatures))
		}
	}
}

// resolvedSnapshot captures the Resolved's own state and every materialized
// master, for deep comparison.
func resolvedSnapshot(t *testing.T, r *Resolved) map[string]any {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]any{
		"jobs":  append([]Job(nil), r.jobs...),
		"sites": append([]string(nil), r.siteNames...),
	}
	for sig, master := range r.shapes {
		out["shape/"+sig] = snapshot(t, master)
		out["slab/"+sig] = append([]int32(nil), master.index.insertion...)
	}
	return out
}

// TestResolvedUnchangedByConcurrentPlans: eight goroutines plan different
// runtime vectors ("seeds") from one Resolved at once; each gets the plan a
// from-scratch NewMulti gives it, and the Resolved and its materialized
// masters are deep-equal before and after. CI and `make race` run it under
// -race -count=10, where a write to the shared master is a reported race too.
func TestResolvedUnchangedByConcurrentPlans(t *testing.T) {
	w, cats := externalDAG(t, 9)
	opts := MultiOptions{Sites: []string{"sandhills", "osg"}, AddStageIn: true}
	r, err := Resolve(w, cats, opts)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, reps = 8, 6
	type cell struct {
		pos  []int32
		secs []float64
		want map[string]any
	}
	cells := make([]cell, goroutines*reps)
	for i := range cells {
		pos, secs, byID := drawRuntimes(r, 900+uint64(i))
		ref := opts
		ref.Policy = policyFor(t, i)
		want, err := NewMulti(withRuntimes(w, byID), cats, ref)
		if err != nil {
			t.Fatal(err)
		}
		cells[i] = cell{pos, secs, snapshot(t, want)}
		// Materialize every signature up front, so the masters exist in
		// the "before" snapshot.
		if _, err := r.Plan(policyFor(t, i), pos, secs); err != nil {
			t.Fatal(err)
		}
	}
	before := resolvedSnapshot(t, r)

	got := make([]*Plan, len(cells))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < reps; rep++ {
				i := g*reps + rep
				p, err := r.Plan(policyFor(t, i), cells[i].pos, cells[i].secs)
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = p
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for i := range cells {
		if !reflect.DeepEqual(cells[i].want, snapshot(t, got[i])) {
			t.Errorf("cell %d: plan under concurrency differs from NewMulti", i)
		}
	}
	if !reflect.DeepEqual(before, resolvedSnapshot(t, r)) {
		t.Error("the Resolved or one of its masters changed under concurrent Plan calls")
	}
}

// TestIndexLevelsMatchGraphLevels: the levels buildIndex records are
// dax.Workflow.Levels position for position, for every constructor.
func TestIndexLevelsMatchGraphLevels(t *testing.T) {
	for dag := uint64(1); dag <= 6; dag++ {
		w, cats := externalDAG(t, dag)
		single, err := New(w, cats, Options{Site: "osg", AddStageIn: true})
		if err != nil {
			t.Fatal(err)
		}
		multi, err := NewMulti(w, cats, MultiOptions{Sites: []string{"sandhills", "osg"}, AddStageIn: true})
		if err != nil {
			t.Fatal(err)
		}
		clustered, err := Cluster(multi, ClusterOptions{MaxTasksPerJob: 3})
		if err != nil {
			t.Fatal(err)
		}
		for name, p := range map[string]*Plan{"New": single, "NewMulti": multi, "Cluster": clustered} {
			want, err := p.Graph().Levels()
			if err != nil {
				t.Fatal(err)
			}
			idx := p.Indexed()
			got := make([][]string, len(idx.Levels))
			for d, level := range idx.Levels {
				for _, pos := range level {
					got[d] = append(got[d], idx.Order[pos])
				}
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("dag %d %s: index levels %v, graph levels %v", dag, name, got, want)
			}
		}
	}
}

// TestAllocsMaterialize pins what the first Plan of a shape costs (run by CI
// as `go test -run 'TestAllocs'`): the master's index and slab are written
// from the Resolved's arrays and the abstract workflow's children are read by
// number, so nothing is allocated per job — at most 0.1 objects per job, at
// n = 2,000 and at n = 20,000, with and without the stage-in job. (Building
// the master through a dax.Workflow first cost about ten; reading each job's
// children as a sorted []string of IDs, one.)
func TestAllocsMaterialize(t *testing.T) {
	const runs = 3
	cats := testCatalogs(t, "split", "run_cap3", "merge")
	if err := cats.Replicas.Add("alignments.out", catalog.Replica{Site: "local", PFN: "/d/a"}); err != nil {
		t.Fatal(err)
	}
	for _, stageIn := range []bool{false, true} {
		for _, width := range []int{2000, 20000} {
			w := fanWorkflow(t, width)
			// One fresh Resolved per measured call and one for the warm-up.
			fresh := make([]*Resolved, runs+1)
			for i := range fresh {
				var err error
				if fresh[i], err = Resolve(w, cats, MultiOptions{Sites: []string{"osg"}, AddStageIn: stageIn}); err != nil {
					t.Fatal(err)
				}
			}
			next := 0
			got := testing.AllocsPerRun(runs, func() {
				cloneSink, _ = fresh[next].Plan(nil, nil, nil)
				next++
			})
			if jobs := cloneSink.Len(); got > 0.1*float64(jobs) {
				t.Errorf("stage-in %v, %d jobs: the first Plan allocates %.0f objects, want at most 0.1 per job", stageIn, jobs, got)
			} else {
				t.Logf("stage-in %v, %d jobs: %.2f objects per job", stageIn, jobs, got/float64(jobs))
			}
		}
	}
}

// roots returns w's jobs without parents, in insertion order.
func roots(w *dax.Workflow) []string {
	var out []string
	for _, j := range w.Jobs() {
		if len(w.Parents(j.ID)) == 0 {
			out = append(out, j.ID)
		}
	}
	return out
}
