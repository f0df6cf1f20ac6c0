package core

import (
	"reflect"
	"testing"

	"pegflow/internal/planner"
	"pegflow/internal/workflow"
)

// smallExperiment is a reduced-scale experiment cheap enough to run twice
// (exact and aggregated) per test.
func smallExperiment(seed uint64, aggregate bool) *Experiment {
	return &Experiment{
		Seed:       seed,
		RetryLimit: 5,
		Workload: workflow.CustomWorkload(workflow.WorkloadParams{
			NumClusters:    800,
			MaxClusterSize: 120,
			SizeExponent:   0.5,
			MeanReadLen:    1000,
		}, seed),
		Aggregate: aggregate,
	}
}

// TestAggregateRunParity is the end-to-end acceptance check for
// aggregation through the real platform simulation: an aggregated run
// must reproduce the exact run's makespan, summary and per-task tables
// bit for bit — record recycling must not perturb the simulation, and
// the folded accumulators must agree with the retained-record math.
func TestAggregateRunParity(t *testing.T) {
	for _, site := range []string{"sandhills", "osg"} {
		exact, err := smallExperiment(42, false).RunWorkflow(site, 60)
		if err != nil {
			t.Fatal(err)
		}
		agg, err := smallExperiment(42, true).RunWorkflow(site, 60)
		if err != nil {
			t.Fatal(err)
		}
		if exact.Result.Makespan != agg.Result.Makespan {
			t.Errorf("%s: makespan diverged: exact %v, agg %v",
				site, exact.Result.Makespan, agg.Result.Makespan)
		}
		if exact.Result.Retries != agg.Result.Retries || exact.Result.Evictions != agg.Result.Evictions {
			t.Errorf("%s: engine counters diverged: exact %+v, agg %+v",
				site, exact.Result, agg.Result)
		}
		if exact.Summary != agg.Summary {
			t.Errorf("%s: summary diverged:\nexact %+v\nagg   %+v", site, exact.Summary, agg.Summary)
		}
		if !reflect.DeepEqual(exact.PerTask, agg.PerTask) {
			t.Errorf("%s: per-task stats diverged:\nexact %+v\nagg   %+v", site, exact.PerTask, agg.PerTask)
		}
		if recs := agg.Result.Log.Records(); recs != nil {
			t.Errorf("%s: aggregated run retained %d records", site, len(recs))
		}
		if agg.Result.Log.Len() != exact.Result.Log.Len() {
			t.Errorf("%s: attempt counts diverged: exact %d, agg %d",
				site, exact.Result.Log.Len(), agg.Result.Log.Len())
		}
	}
}

// TestAggregateClusteredRunParity covers the composite-record path: a
// clustered plan emits per-member records through Event.Members, which
// the engine must fold and recycle identically to the retained path.
func TestAggregateClusteredRunParity(t *testing.T) {
	copts := planner.ClusterOptions{MaxTasksPerJob: 8}
	exact, err := smallExperiment(7, false).RunClustered("osg", 60, copts)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := smallExperiment(7, true).RunClustered("osg", 60, copts)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Summary != agg.Summary {
		t.Errorf("clustered summary diverged:\nexact %+v\nagg   %+v", exact.Summary, agg.Summary)
	}
	if !reflect.DeepEqual(exact.PerTask, agg.PerTask) {
		t.Errorf("clustered per-task stats diverged:\nexact %+v\nagg   %+v", exact.PerTask, agg.PerTask)
	}
}

// TestAggregateEnsembleParity covers the multi-site pool: member engines
// recycle records back through the ensemble facade into the arena of the
// site that allocated them. The ensemble report must match the exact
// run's exactly.
func TestAggregateEnsembleParity(t *testing.T) {
	run := func(aggregate bool) *EnsembleExperiment {
		e, err := HeteroBenchEnsemble(42, 4, 12, planner.PolicyDataAware)
		if err != nil {
			t.Fatal(err)
		}
		e.Aggregate = aggregate
		return e
	}
	exact, agg := runReport(t, run(false)), runReport(t, run(true))
	if !reflect.DeepEqual(exact, agg) {
		t.Errorf("ensemble report diverged:\nexact %+v\nagg   %+v", exact, agg)
	}
}
