package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"pegflow/internal/scenario"
)

func TestMedianAndNearestRank(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of three = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(100 - i) // 100 … 1, unsorted
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := nearestRank(append([]float64(nil), vs...), c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	// Five samples: p99 is the largest, p50 the third.
	five := []float64{9, 2, 7, 4, 5}
	if got := nearestRank(append([]float64(nil), five...), 99); got != 9 {
		t.Errorf("p99 of five = %v, want 9", got)
	}
	if got := nearestRank(append([]float64(nil), five...), 50); got != 5 {
		t.Errorf("p50 of five = %v, want 5", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4):
// the PR driver computes spreads with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{2, 4}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(c.vs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.vs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if spread([]float64{3}) != 0 {
		t.Error("one value has no spread")
	}
}

// TestReferenceTime pins the arithmetic that states a round in reference
// time: the host factor is the mean of the two samples over the nominal
// sample, and every clock reading of the round is divided by it.
func TestReferenceTime(t *testing.T) {
	ref := newHostRef(2, 10) // nominal sample: 10 sorts of 100 µs
	if got := ref.factor(2*time.Millisecond, 4*time.Millisecond); got != 3 {
		t.Errorf("samples of 2 and 4 ms against a nominal 1 ms: factor %v, want 3", got)
	}
	if ref.sample() <= 0 {
		t.Error("a sample took no time")
	}
	out := roundOut{cost: cost{wall: 3 * time.Second, cpu: 6 * time.Second, mallocs: 7}, latencies: []float64{3, 9}}
	out.inReferenceTime(3)
	want := roundOut{cost: cost{wall: time.Second, cpu: 2 * time.Second, mallocs: 7}, latencies: []float64{1, 3}}
	if !reflect.DeepEqual(out, want) {
		t.Errorf("round in reference time = %+v, want %+v", out, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "b", StartNS: 30, EndNS: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", StartNS: 90, EndNS: 120}, // sticks out of root
		{ID: 5, Parent: 2, Name: "leaf", StartNS: 15, EndNS: 25},
		{ID: 6, Parent: 3, Name: "inside-b", StartNS: 35, EndNS: 36},
		{ID: 7, Parent: 3, Name: "inside-b", StartNS: 35, EndNS: 50}, // covers span 6
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - (50 + 10), // children cover [10,60] and [90,100]
		2: 30 - 10,
		3: 30 - 15,
		4: 30,
		5: 10,
		6: 1,
		7: 15,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	byName := selfByName(spans)
	if byName["inside-b"] != 16 {
		t.Errorf("self time by name sums spans: got %v, want 16", byName["inside-b"])
	}
}

func TestTracerAggregatesTile(t *testing.T) {
	tr := newTracer("w")
	root := tr.start(0, "engine.run")
	tr.aggregate(root, "x", 30, 3)
	tr.aggregate(root, "y", 20, 2)
	tr.end(root)
	x, y := tr.spans[1], tr.spans[2]
	if x.EndNS-x.StartNS != 30 || y.EndNS-y.StartNS != 20 || y.StartNS != x.EndNS || x.Calls != 3 {
		t.Errorf("aggregates must tile from the parent's start: %+v %+v", x, y)
	}
	var none *tracer // the untraced rounds
	none.do(0, "ignored", func() {})
	none.aggregate(none.start(0, "ignored"), "ignored", 1, 1)
}

func TestDocumentsDeterministicPerSeed(t *testing.T) {
	sz := fullSizes()
	gens := map[string]func(seed uint64) []byte{
		"paper_sweep":       func(s uint64) []byte { return paperSweepDoc(s, sz) },
		"failover_ensemble": func(s uint64) []byte { return failoverEnsembleDoc(s, sz) },
		"big_run":           func(s uint64) []byte { return bigRunDoc(s, sz.bigN) },
		"serve":             func(s uint64) []byte { return serveDoc(3, missSeed(s, 2, 17), sz) },
		"plan_cold":         func(s uint64) []byte { return planColdDoc(3, primeSeed(s), sz) },
	}
	wantCells := map[string]int{"paper_sweep": 2048, "failover_ensemble": 32, "big_run": 1, "serve": 4, "plan_cold": 4}
	for name, gen := range gens {
		a, b, c := gen(42), gen(42), gen(43)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed rendered different documents", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 42 and 43 rendered the same document", name)
		}
		d, err := scenario.Parse(name, a)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		comp, err := scenario.Compile(d)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(comp.Cells) != wantCells[name] {
			t.Errorf("%s: %d cells, want %d", name, len(comp.Cells), wantCells[name])
		}
	}
	// serve_miss never repeats a document seed, and never reuses the seed
	// the set-up primed with.
	seen := map[uint64]bool{primeSeed(42): true}
	for r := 0; r < 300; r++ { // past 256: the round must not run into the seed's bits
		for i := 0; i < sz.missRequests; i++ {
			s := missSeed(42, r, i)
			if seen[s] {
				t.Fatalf("document seed %d repeats (round %d, request %d)", s, r, i)
			}
			seen[s] = true
		}
	}
}

func TestCheckBody(t *testing.T) {
	good := []byte(`{"scenario":"x","fingerprint":"f","version":1,"cells":2}
{"attempts":10,"cell":0,"jobs":9,"success":true}
{"attempts":12,"cell":1,"jobs":11,"success":true}
{"done":true,"cells":2}
`)
	out := checkBody(good)
	if out.failed != 0 || out.cells != 2 || out.attempts != 22 || out.jobs != 20 {
		t.Errorf("good body: %+v", out)
	}
	failedRow := bytes.Replace(good, []byte(`"jobs":11,"success":true`), []byte(`"jobs":11,"success":false`), 1)
	if out := checkBody(failedRow); out.failed != 1 || out.cells != 2 {
		t.Errorf("a row without success must count as one failed cell: %+v", out)
	}
	for name, body := range map[string][]byte{
		"no footer":   good[:bytes.LastIndex(good[:len(good)-1], []byte("\n"))+1],
		"error line":  bytes.Replace(good, []byte(`{"done":true,"cells":2}`), []byte(`{"error":"boom"}`), 1),
		"missing row": bytes.Replace(good, []byte("{\"attempts\":12,\"cell\":1,\"jobs\":11,\"success\":true}\n"), nil, 1),
		"empty":       nil,
		"json error":  []byte(`{"error":"8 scenario runs already in flight"}` + "\n"),
	} {
		if out := checkBody(body); out.failed == 0 {
			t.Errorf("%s: a broken stream must fail: %+v", name, out)
		}
	}
}

func sideOf(values ...float64) side { return side{values: values} }

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "latency", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.10}
	steadyA := sideOf(100, 101, 99, 100, 100.5, 99.5)
	for _, c := range []struct {
		name string
		def  metricDef
		a, b side
		want string
	}{
		{"same numbers", lower, steadyA, steadyA, verdictUnchanged},
		{"5% slower, inside the bound", lower, steadyA, sideOf(105, 106, 104, 105, 105, 105), verdictUnchanged},
		{"20% slower", lower, steadyA, sideOf(120, 121, 119, 120, 120, 120), verdictRegressed},
		{"20% lower rate", higher, steadyA, sideOf(80, 81, 79, 80, 80, 80), verdictRegressed},
		{"20% higher rate is no regression", higher, steadyA, sideOf(120, 121, 119, 120, 120, 120), verdictUnchanged},
		{"noisy b, medians agree", lower, steadyA, sideOf(70, 130, 100, 60, 140, 100), verdictUnresolved},
		{"noisy b, but every run better", lower, steadyA, sideOf(40, 90, 60, 50, 80, 70), verdictUnchanged},
		{"one run each, steady rounds", lower,
			side{values: []float64{100}, rounds: []float64{99, 100, 101, 100, 100}},
			side{values: []float64{103}, rounds: []float64{102, 103, 104, 103, 103}}, verdictUnchanged},
		{"one run each, rounds all over the place", lower,
			side{values: []float64{100}, rounds: []float64{60, 100, 140, 80, 120}},
			side{values: []float64{103}, rounds: []float64{102, 103, 104, 103, 103}}, verdictUnresolved},
	} {
		if _, got := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	worse, _ := verdict(higher, sideOf(100), sideOf(80))
	if math.Abs(worse-0.2) > 1e-12 {
		t.Errorf("a rate falling 100 → 80 is 0.2 worse with base 100, got %v", worse)
	}
}

func TestCompareReportsChecksOutputs(t *testing.T) {
	mk := func(sha string, rate float64, correct bool) *report {
		return &report{Schema: reportSchema, Runs: []*runResult{{
			Workload: "big_run", Seed: 42, Correct: correct, OutputSHA256: sha,
			Metrics: map[string]value{"attempts_per_s": {Value: rate, Unit: "attempts/s", Samples: []float64{rate, rate}}},
		}}}
	}
	var out bytes.Buffer
	if code := compareReports(mk("aa", 100, true), mk("aa", 101, true), &out); code != 0 {
		t.Errorf("agreeing reports: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "unchanged") || !strings.Contains(out.String(), "1 runs identical, 0 differ") {
		t.Errorf("report lacks the verdict or the output check:\n%s", out.String())
	}
	if code := compareReports(mk("aa", 100, true), mk("bb", 100, true), io.Discard); code != 1 {
		t.Errorf("different output bytes at the same seed: exit %d, want 1", code)
	}
	if code := compareReports(mk("aa", 100, true), mk("aa", 50, true), io.Discard); code != 1 {
		t.Errorf("half the rate: exit %d, want 1", code)
	}
	if code := compareReports(mk("aa", 100, true), mk("aa", 100, false), io.Discard); code != 1 {
		t.Errorf("an incorrect run: exit %d, want 1", code)
	}
}

// TestQuickSmoke runs every workload at -quick size, untraced and traced
// in one process, and asserts the contract of a run: every named metric
// present with its unit, no failed operation, a result line of exactly
// the agreed shape.
func TestQuickSmoke(t *testing.T) {
	for _, wl := range workloads {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			o := options{seed: 42, seconds: 0.1, quick: true, trace: "both"}
			res, err := runWorkload(o.config(&wl, io.Discard))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct %v, %d of %d operations failed, problems %v", res.Correct, res.Failed, res.Attempted, res.Problems)
			}
			if len(res.OutputSHA256) != 64 {
				t.Errorf("output_sha256 = %q", res.OutputSHA256)
			}
			for _, def := range endToEnd {
				v, ok := res.Metrics[def.Name]
				if !ok || v.Unit != def.Unit {
					t.Errorf("end-to-end metric %s: present %v, unit %q, want unit %q", def.Name, ok, v.Unit, def.Unit)
				}
				if !(v.Value > 0) || math.IsInf(v.Value, 0) {
					t.Errorf("end-to-end metric %s = %v: must be a positive number", def.Name, v.Value)
				}
			}
			for _, def := range perLayer {
				v, ok := res.Layers[def.Name]
				if !ok || v.Unit != def.Unit {
					t.Errorf("per-layer metric %s: present %v, unit %q, want unit %q", def.Name, ok, v.Unit, def.Unit)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("per-layer metric %s = %v", def.Name, v.Value)
				}
			}
			if len(res.spans) == 0 {
				t.Error("the traced pass recorded no spans")
			}
			line, err := finalLine(res)
			if err != nil {
				t.Fatal(err)
			}
			var generic map[string]json.RawMessage
			if err := json.Unmarshal(line, &generic); err != nil {
				t.Fatal(err)
			}
			if len(generic) != 4 || generic["correct"] == nil || generic["attempted"] == nil ||
				generic["failed"] == nil || generic["metrics"] == nil {
				t.Errorf("result line keys: %s", line)
			}
		})
	}
}

// TestSameSeedSameOutput is the determinism the whole design rests on:
// simulated results are checked, not scored.
func TestSameSeedSameOutput(t *testing.T) {
	wl := findWorkload("serve_miss")
	run := func(seed uint64) string {
		o := options{seed: seed, seconds: 0.1, quick: true, trace: "0"}
		res, err := runWorkload(o.config(wl, io.Discard))
		if err != nil {
			t.Fatal(err)
		}
		return res.OutputSHA256
	}
	if a, b := run(7), run(7); a != b {
		t.Errorf("seed 7 twice: %s then %s", a, b)
	}
	if a, c := run(7), run(8); a == c {
		t.Error("seeds 7 and 8 produced the same output")
	}
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json — the PR driver's
// view of the benchmark — equal to what the harness actually reports.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if want := describe(); !reflect.DeepEqual(got, want) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run ./bench -describe > BENCHMARK.json`")
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric name %s is used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}
