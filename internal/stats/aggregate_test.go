package stats

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pegflow/internal/kickstart"
	"pegflow/internal/stats/quantile"
)

// mkRecord builds a valid record with phase lengths derived from the
// given seeds.
func mkRecord(job, tr, site, cluster string, attempt int, st kickstart.Status, t0, wait, setup, exec float64) *kickstart.Record {
	return &kickstart.Record{
		JobID:          job,
		Transformation: tr,
		Site:           site,
		ClusterID:      cluster,
		Node:           site + "-n1",
		Attempt:        attempt,
		SubmitTime:     t0,
		SetupStart:     t0 + wait,
		ExecStart:      t0 + wait + setup,
		EndTime:        t0 + wait + setup + exec,
		Status:         st,
	}
}

// engineLikeStream generates a record stream obeying the engine
// invariants aggregation assumes: per job, zero or more failures
// followed by at most one success.
func engineLikeStream(r *rand.Rand, jobs int) []*kickstart.Record {
	trs := []string{"split", "run_cap3", "merge"}
	sites := []string{"osg", "sandhills"}
	var out []*kickstart.Record
	t := 0.0
	for j := 0; j < jobs; j++ {
		id := fmt.Sprintf("job_%04d", j)
		tr := trs[r.Intn(len(trs))]
		site := sites[r.Intn(len(sites))]
		cluster := ""
		if j%5 == 0 {
			cluster = fmt.Sprintf("merged_%02d", j/5)
		}
		attempt := 1
		for r.Float64() < 0.3 {
			st := kickstart.StatusFailed
			if r.Float64() < 0.5 {
				st = kickstart.StatusEvicted
			}
			out = append(out, mkRecord(id, tr, site, cluster, attempt, st,
				t, 1+r.Float64()*100, r.Float64()*30, r.Float64()*200))
			attempt++
			t += 3
		}
		if r.Float64() < 0.9 { // some jobs never succeed
			out = append(out, mkRecord(id, tr, site, cluster, attempt, kickstart.StatusSuccess,
				t, 1+r.Float64()*100, r.Float64()*30, r.Float64()*500))
		}
		t += 7
	}
	return out
}

func appendAll(t *testing.T, l *kickstart.Log, recs []*kickstart.Record) {
	t.Helper()
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAllocsSummarize: Summarize reads the log's running tally, so on an
// exact log it allocates nothing however many records the log retains.
func TestAllocsSummarize(t *testing.T) {
	log := &kickstart.Log{}
	appendAll(t, log, engineLikeStream(rand.New(rand.NewSource(11)), 500))
	var s Summary
	if avg := testing.AllocsPerRun(100, func() { s = Summarize(log, 1000) }); avg != 0 {
		t.Errorf("Summarize allocates %.1f objects, want 0", avg)
	}
	if s.Attempts != log.Len() || s.Jobs == 0 || s.Failures == 0 || s.Retries == 0 {
		t.Fatalf("implausible summary: %+v", s)
	}
}

// TestSummarizeRetriesCompositeLanded: a composite job's failure records
// carry the composite's ID and its landing's records each member task's,
// so a bundle evicted once and then landed is one retry, not an
// unfinished job.
func TestSummarizeRetriesCompositeLanded(t *testing.T) {
	for _, aggregate := range []bool{false, true} {
		log := &kickstart.Log{}
		if aggregate {
			log.SetAggregate()
		}
		appendAll(t, log, []*kickstart.Record{
			mkRecord("merged_0", "run_cap3", "osg", "merged_0", 1, kickstart.StatusEvicted, 0, 1, 1, 1),
			mkRecord("task_a", "run_cap3", "osg", "merged_0", 2, kickstart.StatusSuccess, 5, 1, 1, 1),
			mkRecord("task_b", "run_cap3", "osg", "merged_0", 2, kickstart.StatusSuccess, 5, 1, 1, 1),
		})
		if s := Summarize(log, 100); s.Jobs != 2 || s.Attempts != 3 || s.Failures != 1 || s.Retries != 1 {
			t.Errorf("aggregate=%v: summary %+v, want Jobs=2 Attempts=3 Failures=1 Retries=1", aggregate, s)
		}
	}
}

// TestSummarizeRetriesSemantics pins the Retries identity on a
// hand-built log: retries exclude first attempts of jobs that never
// succeeded, including failures recorded after an earlier success of
// another job.
func TestSummarizeRetriesSemantics(t *testing.T) {
	log := &kickstart.Log{}
	appendAll(t, log, []*kickstart.Record{
		mkRecord("a", "t", "s", "", 1, kickstart.StatusFailed, 0, 1, 1, 1),
		mkRecord("a", "t", "s", "", 2, kickstart.StatusSuccess, 5, 1, 1, 1),
		mkRecord("b", "t", "s", "", 1, kickstart.StatusSuccess, 0, 1, 1, 1),
		mkRecord("c", "t", "s", "", 1, kickstart.StatusEvicted, 0, 1, 1, 1),
		mkRecord("c", "t", "s", "", 2, kickstart.StatusFailed, 9, 1, 1, 1),
	})
	s := Summarize(log, 100)
	// 5 attempts, 2 succeeded jobs, job c never finished: retries =
	// 5 - 2 - 1 = 2 (a's first attempt... a retried once, c retried once).
	if s.Jobs != 2 || s.Attempts != 5 || s.Failures != 3 || s.Retries != 2 {
		t.Fatalf("summary %+v, want Jobs=2 Attempts=5 Failures=3 Retries=2", s)
	}
}

// TestAggregateParity runs the same engine-like stream through an exact
// and an aggregating log and requires identical stats output from every
// consumer: Summarize, PerTransformation and PerCluster.
func TestAggregateParity(t *testing.T) {
	recs := engineLikeStream(rand.New(rand.NewSource(23)), 500)
	exact := &kickstart.Log{}
	appendAll(t, exact, recs)
	agg := &kickstart.Log{}
	agg.SetAggregate()
	appendAll(t, agg, recs)

	if exact.Len() != agg.Len() {
		t.Fatalf("Len: exact %d, agg %d", exact.Len(), agg.Len())
	}
	if got := agg.Records(); got != nil {
		t.Fatalf("aggregating log retained %d records", len(got))
	}
	if se, sa := Summarize(exact, 777), Summarize(agg, 777); se != sa {
		t.Fatalf("Summarize diverged:\nexact %+v\nagg   %+v", se, sa)
	}
	if pe, pa := PerTransformation(exact), PerTransformation(agg); !reflect.DeepEqual(pe, pa) {
		t.Fatalf("PerTransformation diverged:\nexact %+v\nagg   %+v", pe, pa)
	}
	if ce, ca := PerCluster(exact), PerCluster(agg); !reflect.DeepEqual(ce, ca) {
		t.Fatalf("PerCluster diverged:\nexact %+v\nagg   %+v", ce, ca)
	}
}

// TestAggregateSketchSmallIsExact: while the success count is below the
// sketch's marker count, aggregated percentiles equal the exact path
// bit for bit.
func TestAggregateSketchSmallIsExact(t *testing.T) {
	recs := engineLikeStream(rand.New(rand.NewSource(31)), 40)
	exact, agg := &kickstart.Log{}, &kickstart.Log{}
	agg.SetAggregate()
	appendAll(t, exact, recs)
	appendAll(t, agg, recs)
	ps := []float64{5, 50, 95, 99}
	for name, phase := range map[string]struct {
		of     func(*kickstart.Record) float64
		sketch *quantile.Sketch
	}{
		"exec":    {(*kickstart.Record).Exec, agg.Aggregates().ExecSketch},
		"waiting": {(*kickstart.Record).Waiting, agg.Aggregates().WaitSketch},
	} {
		var vals []float64
		for _, r := range exact.Successes() {
			vals = append(vals, phase.of(r))
		}
		if e, a := int64(len(vals)), phase.sketch.Count(); e != a {
			t.Fatalf("%s counts diverged: %d vs %d", name, e, a)
		}
		want, got := PercentilesOf(vals, ps...), quantile.Of(phase.sketch, ps...)
		for i, p := range ps {
			if want[i] != got[i] {
				t.Fatalf("%s p%v: exact %v, sketch %v (small streams must be exact)", name, p, want[i], got[i])
			}
		}
	}
}

// TestAggregateSketchRankEnvelope: on a large stream, aggregated
// percentiles stay within the sketch's documented rank-error envelope
// of the exact values.
func TestAggregateSketchRankEnvelope(t *testing.T) {
	recs := engineLikeStream(rand.New(rand.NewSource(37)), 5000)
	exact, agg := &kickstart.Log{}, &kickstart.Log{}
	agg.SetAggregate()
	appendAll(t, exact, recs)
	appendAll(t, agg, recs)
	var vals []float64
	for _, r := range exact.Successes() {
		vals = append(vals, r.Exec())
	}
	for _, p := range []float64{5, 25, 50, 75, 95} {
		lo := PercentilesOf(vals, p-5)[0]
		hi := PercentilesOf(vals, p+5)[0]
		if got := quantile.Of(agg.Aggregates().ExecSketch, p)[0]; got < lo || got > hi {
			t.Fatalf("p%v: sketch %v outside exact rank envelope [%v, %v]", p, got, lo, hi)
		}
	}
}

// TestAllocsAggregateFold is the aggregation allocation gate: once every
// grouping key has been seen, folding a record must not allocate.
func TestAllocsAggregateFold(t *testing.T) {
	log := &kickstart.Log{}
	log.SetAggregate()
	succ := mkRecord("steady", "run_cap3", "osg", "merged_01", 1, kickstart.StatusSuccess, 10, 50, 20, 300)
	fail := mkRecord("steady", "run_cap3", "osg", "merged_01", 1, kickstart.StatusEvicted, 10, 50, 20, 300)
	if err := log.Append(succ); err != nil {
		t.Fatal(err)
	}
	// Warm the sketches past the values they keep inline, so Add takes
	// the path of a million-job run's steady state: a bucket count only
	// (keeping a value inline is also allocation-free).
	for i := 0; i < 200; i++ {
		if err := log.Append(succ); err != nil {
			t.Fatal(err)
		}
	}
	for name, rec := range map[string]*kickstart.Record{"success": succ, "eviction": fail} {
		rec := rec
		if avg := testing.AllocsPerRun(1000, func() {
			if err := log.Append(rec); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("steady-state fold of a %s record allocates %.1f allocs/op, want 0", name, avg)
		}
	}
}
