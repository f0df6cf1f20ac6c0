package ensemble

import (
	"fmt"
	"testing"

	"pegflow/internal/planner"
	"pegflow/internal/sim/platform"
)

// TestAllocsEnsembleSubmit is the ensemble's share of the attempt-path
// allocation gate (CI: `go test -run 'TestAllocs'`): holding a submission,
// releasing it to the pool under the member's tag, waiting out a backoff
// delay and pulling the terminal event allocate nothing once the hold
// queue, the delayed slab and the pool have reached their high-water marks.
func TestAllocsEnsembleSubmit(t *testing.T) {
	pool, err := platform.NewMultiExecutor(testConfigs(5))
	if err != nil {
		t.Fatal(err)
	}
	const n = 256
	pool.Reserve(n)
	d := &driver{pool: pool, specs: []Spec{{Name: "low", Priority: 1}, {Name: "high", Priority: 2}},
		opts: Options{MaxInFlight: n / 4}}
	members := []*member{{d: d, wf: 0}, {d: d, wf: 1}}
	jobs := make([]planner.Job, n)
	index := make(map[string]int, n)
	for i := range jobs {
		jobs[i] = planner.Job{
			ID: fmt.Sprintf("J%03d", i), Transformation: "run_cap3",
			Site: []string{"alpha", "beta"}[i%2], ExecSeconds: 50, NeedsInstall: i%2 == 1,
		}
		index[jobs[i].ID] = i
	}
	held := 0
	cycle := func() {
		for i := range jobs {
			m := members[i/2%2]
			if i%4 == 0 {
				m.SubmitAfter(&jobs[i], 1, float64(i))
			} else {
				m.Submit(&jobs[i], 1)
			}
			if len(d.hold) > held {
				held = len(d.hold)
			}
		}
		for done := 0; done < n; done++ {
			wf, ev, ok := d.next()
			if !ok {
				t.Fatal("pool ran dry with submissions outstanding")
			}
			if want := members[index[ev.JobID]/2%2].wf; int(wf) != want {
				t.Fatalf("%s pulled for member %d, submitted by %d", ev.JobID, wf, want)
			}
			pool.Recycle(ev.Record)
		}
	}
	allocs := testing.AllocsPerRun(5, cycle)
	if held < n/2 {
		t.Fatalf("fixture broken: at most %d submissions held", held)
	}
	if allocs != 0 {
		t.Errorf("submit/release/deliver cycle of %d jobs allocates %.1f, want 0", n, allocs)
	}
}
