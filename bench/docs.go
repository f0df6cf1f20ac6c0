package main

import (
	"encoding/json"
	"fmt"

	"pegflow/internal/fault"
)

// The document generators: every input the program sees is a scenario
// document rendered here from -seed and the sizing table. The same seed
// renders the same bytes; the program never learns the seed any other way.

// sizes is the sizing table of the five workloads. The full sizes are the
// ISSUE's (final); -quick shrinks every axis to about 1/50 of the work so
// the smoke test stays inside tier-1's time budget.
type sizes struct {
	// paper_sweep
	sweepSeeds int
	sweepN     []int
	// failover_ensemble
	ensClusters  int
	ensN         int
	ensSeeds     int
	ensWorkflows int
	// big_run, and the chunk counts of the n-curve layer metrics
	bigN   int
	curveN [3]int
	// serve_*: requests per round and the shapes' base cluster count
	missRequests  int
	hitRequests   int
	serveClusters int
	serveN        []int
	// replay sizes of the traced pass
	replaySmallN, replayEnsN int
	// coldRequests is how many novel-shape POSTs core.plan_cold_ms_per_request times.
	coldRequests int
	// loopIters sizes the tight kernel loops of the layer suite.
	loopIters int
}

func fullSizes() sizes {
	return sizes{
		sweepSeeds:    256,
		sweepN:        []int{10, 100, 300, 500},
		ensClusters:   20000,
		ensN:          2000,
		ensSeeds:      8,
		ensWorkflows:  4,
		bigN:          100000,
		curveN:        [3]int{1000, 10000, 100000},
		missRequests:  250,
		hitRequests:   5000,
		serveClusters: 4000,
		serveN:        []int{64, 256},
		replaySmallN:  500,
		replayEnsN:    2000,
		coldRequests:  24,
		loopIters:     2000000,
	}
}

func quickSizes() sizes {
	return sizes{
		sweepSeeds:    5,
		sweepN:        []int{10, 100, 300, 500},
		ensClusters:   2000,
		ensN:          100,
		ensSeeds:      1,
		ensWorkflows:  2,
		bigN:          2000,
		curveN:        [3]int{100, 400, 2000},
		missRequests:  24,
		hitRequests:   400,
		serveClusters: 400,
		serveN:        []int{16, 32},
		replaySmallN:  100,
		replayEnsN:    100,
		coldRequests:  3,
		loopIters:     20000,
	}
}

// serveShapes is the size of the serve workloads' document family.
const serveShapes = 8

// doc aliases the loose JSON object the generators assemble; rendering
// through encoding/json keeps the bytes deterministic (sorted keys).
type doc map[string]any

func render(d doc) []byte {
	b, err := json.Marshal(d)
	if err != nil {
		// Only marshalable literals are ever put in a doc.
		panic(err)
	}
	return b
}

func seedRange(base uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = base + uint64(i)
	}
	return out
}

// paperSweepDoc is the paper's own grid as a Monte Carlo sweep: both
// platforms × n ∈ {10,100,300,500} × sweepSeeds seeds, exact statistics.
func paperSweepDoc(seed uint64, sz sizes) []byte {
	return render(doc{
		"version": 1,
		"name":    "bench-paper-sweep",
		"sites": []doc{
			{"preset": "sandhills", "slots": 300},
			{"preset": "osg", "slots": 600},
		},
		"site_sets": [][]string{{"sandhills"}, {"osg"}},
		"workload": doc{
			"preset": "paper",
			"n":      sz.sweepN,
			"seeds":  seedRange(seed+100, sz.sweepSeeds),
		},
		"outputs": doc{"percentiles": []float64{50, 90, 99}},
	})
}

// failoverEnsembleDoc drives the other run path: a two-site pool with
// failover, clustering, retry backoff, the five faults of
// examples/scenarios/site-churn.json and four concurrent member workflows.
func failoverEnsembleDoc(seed uint64, sz sizes) []byte {
	return render(doc{
		"version": 1,
		"name":    "bench-failover-ensemble",
		"sites": []doc{
			{"name": "alloc", "preset": "sandhills", "slots": 100},
			{"name": "spot", "preset": "osg", "slots": 300, "eviction_rate": 5e-5},
		},
		"workload": doc{
			"params": doc{
				"num_clusters":     sz.ensClusters,
				"max_cluster_size": 300,
				"size_exponent":    0.5,
				"mean_read_len":    1200,
			},
			"n":     []int{sz.ensN},
			"seeds": seedRange(seed+100, sz.ensSeeds),
		},
		"policies": doc{
			"site":     []string{"data-aware", "runtime-aware"},
			"cluster":  []doc{{}, {"target_seconds": 1800}},
			"failover": []bool{true},
		},
		"retries":       8,
		"retry_backoff": doc{"base_s": 30, "cap_s": 600},
		"faults":        churnFaults(),
		"ensemble":      doc{"workflows": sz.ensWorkflows},
		"outputs":       doc{"percentiles": []float64{50, 99}},
	})
}

// churnFaults are the five faults of examples/scenarios/site-churn.json,
// with the allocation's capacity steps scaled to its 100 slots.
func churnFaults() []fault.Spec {
	half, full := 50, 100
	return []fault.Spec{
		{Type: "blackout", Site: "spot", At: 900, Duration: 300},
		{Type: "outage", Site: "spot", At: 1800, Duration: 1200},
		{Type: "storm", Site: "spot", At: 4000, Duration: 1500, Multiplier: 12, KillFraction: 0.3},
		{Type: "capacity", Site: "alloc", At: 2500, Slots: &half},
		{Type: "capacity", Site: "alloc", At: 6000, Slots: &full},
	}
}

// bigRunDoc is one aggregated single-site OSG cell at n chunks: the
// n-curve workload. The retry budget is BENCH_scale.json's (the terminal
// merge faces OSG's eviction hazard for ~4·n simulated seconds).
func bigRunDoc(seed uint64, n int) []byte {
	return render(doc{
		"version":   1,
		"name":      fmt.Sprintf("bench-big-run-n%d", n),
		"sites":     []doc{{"preset": "osg", "slots": 600}},
		"site_sets": [][]string{{"osg"}},
		"workload":  doc{"preset": "paper", "n": []int{n}, "seeds": []uint64{seed}},
		"retries":   1000,
		"outputs":   doc{"aggregate": true, "percentiles": []float64{50, 90, 99}},
	})
}

// serveFields are the row fields the serve documents ask for: enough to
// verify a row (success) and to count the work it stands for (jobs,
// attempts).
var serveFields = []string{"makespan_s", "jobs", "attempts", "retries", "evictions", "success"}

// serveDoc is shape k of the serve family at the given document seed: two
// preset sites swept separately over two chunk counts, 4 cells. Shapes
// differ in num_clusters, so each owns its plans in the plan cache; the
// seed changes the fingerprint (a result-cache miss) but not the plan key.
func serveDoc(k int, docSeed uint64, sz sizes) []byte {
	return render(doc{
		"version": 1,
		"name":    fmt.Sprintf("bench-serve-%d", k),
		"sites": []doc{
			{"preset": "sandhills", "slots": 64},
			{"preset": "osg", "slots": 128},
		},
		"site_sets": [][]string{{"sandhills"}, {"osg"}},
		"workload": doc{
			"params": doc{
				"num_clusters":     sz.serveClusters + 7*k,
				"max_cluster_size": 200,
				"size_exponent":    0.5,
				"mean_read_len":    1000,
			},
			"n":     sz.serveN,
			"seeds": []uint64{docSeed},
		},
		"outputs": doc{"fields": serveFields, "percentiles": []float64{50, 90, 99}},
	})
}

// planColdDoc is a serve document whose workload params no request has
// used before: every cell pays a master plan build. It backs only the
// layer metric core.plan_cold_ms_per_request (see README, "Rejected").
func planColdDoc(i int, docSeed uint64, sz sizes) []byte {
	return render(doc{
		"version":   1,
		"name":      "bench-plan-cold",
		"sites":     []doc{{"preset": "sandhills", "slots": 64}, {"preset": "osg", "slots": 128}},
		"site_sets": [][]string{{"sandhills"}, {"osg"}},
		"workload": doc{
			"params": doc{
				"num_clusters":     sz.serveClusters + 1000 + int(docSeed%500) + i,
				"max_cluster_size": 200,
				"size_exponent":    0.5,
				"mean_read_len":    1000,
			},
			"n":     sz.serveN,
			"seeds": []uint64{docSeed},
		},
		"outputs": doc{"fields": serveFields, "percentiles": []float64{50, 90, 99}},
	})
}
