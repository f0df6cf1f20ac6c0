package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// runAggregateLines parses src, switches it into aggregation mode the way
// `pegflow scenario run -aggregate` does (before Compile, so the
// fingerprint reflects the mode), and runs it.
func runAggregateLines(t *testing.T, src string, workers int) [][]byte {
	t.Helper()
	doc, err := Parse("agg.json", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	doc.Outputs.Aggregate = true
	c, err := Compile(doc)
	if err != nil {
		t.Fatal(err)
	}
	lines, err := c.Run(RunOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestAggregateDeterministicAcrossWorkers is the satellite determinism
// gate: aggregated-mode scenario output must be byte-identical across
// worker counts and across repeated runs.
func TestAggregateDeterministicAcrossWorkers(t *testing.T) {
	leakCheck(t)
	one := joinLines(runAggregateLines(t, minimal, 1))
	eight := joinLines(runAggregateLines(t, minimal, 8))
	again := joinLines(runAggregateLines(t, minimal, 8))
	if !bytes.Equal(one, eight) {
		t.Errorf("aggregated output depends on worker count:\n--- workers=1 ---\n%s--- workers=8 ---\n%s", one, eight)
	}
	if !bytes.Equal(eight, again) {
		t.Error("aggregated output differs between repeated runs")
	}
}

// TestAggregateMatchesExactCells: aggregation must not change any counter
// or makespan field — only the percentile fields may move (sketch vs
// exact), and on these small cells the sketches are still exact, so even
// those must match bit for bit.
func TestAggregateMatchesExactCells(t *testing.T) {
	exact := runLines(t, minimal, 0)
	agg := runAggregateLines(t, minimal, 0)
	if len(exact) != len(agg) {
		t.Fatalf("line counts diverged: exact %d, agg %d", len(exact), len(agg))
	}
	// Compare cell rows (skip header/footer: fingerprints differ by design).
	for i := 1; i < len(exact)-1; i++ {
		var er, ar map[string]any
		if err := json.Unmarshal(exact[i], &er); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(agg[i], &ar); err != nil {
			t.Fatal(err)
		}
		for k, ev := range er {
			av, ok := ar[k]
			if !ok {
				t.Errorf("cell %d: aggregated row lost field %q", i-1, k)
				continue
			}
			if isSmallCellExact(er) && !reflect.DeepEqual(ev, av) {
				t.Errorf("cell %d field %q: exact %v, aggregated %v", i-1, k, ev, av)
			}
		}
	}
}

// TestAggregateWithinBoundOfExact runs aggregate-scale.json as written and
// with outputs.aggregate removed: every field but the percentiles is
// byte-equal, and every percentile is within quantile.Sketch's 2^-8 of the
// exact nearest-rank value. Its kickstart_p99 sits above an outlier merge
// job, the tail a rank-interpolating sketch misreports.
func TestAggregateWithinBoundOfExact(t *testing.T) {
	src, err := os.ReadFile("../../examples/scenarios/aggregate-scale.json")
	if err != nil {
		t.Fatal(err)
	}
	run := func(aggregate bool) ([][]byte, []float64) {
		doc, err := Parse("aggregate-scale.json", src)
		if err != nil {
			t.Fatal(err)
		}
		doc.Outputs.Aggregate = aggregate
		c, err := Compile(doc)
		if err != nil {
			t.Fatal(err)
		}
		lines, err := c.Run(RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return lines, doc.Outputs.Percentiles
	}
	agg, ps := run(true)
	exact, _ := run(false)
	if len(ps) == 0 || len(agg) != len(exact) {
		t.Fatalf("percentiles %v; line counts: aggregated %d, exact %d", ps, len(agg), len(exact))
	}
	percentile := map[string]bool{}
	for _, p := range ps {
		suffix := strconv.FormatFloat(p, 'g', -1, 64)
		percentile["kickstart_p"+suffix], percentile["waiting_p"+suffix] = true, true
	}
	// Compare cell rows (skip header/footer: fingerprints differ by design).
	for i := 1; i < len(exact)-1; i++ {
		var er, ar map[string]json.RawMessage
		if err := json.Unmarshal(exact[i], &er); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(agg[i], &ar); err != nil {
			t.Fatal(err)
		}
		if len(er) != len(ar) {
			t.Fatalf("cell %d: exact row has %d fields, aggregated %d", i-1, len(er), len(ar))
		}
		for k, ev := range er {
			av := ar[k]
			if !percentile[k] {
				if !bytes.Equal(ev, av) {
					t.Errorf("cell %d field %q: exact %s, aggregated %s", i-1, k, ev, av)
				}
				continue
			}
			var e, a float64
			if json.Unmarshal(ev, &e) != nil || json.Unmarshal(av, &a) != nil {
				t.Fatalf("cell %d field %q: exact %s, aggregated %s are not both numbers", i-1, k, ev, av)
			}
			if math.Abs(a-e) > e/256 {
				t.Errorf("cell %d %s: aggregated %v, exact %v, off by more than 2^-8", i-1, k, a, e)
			}
		}
	}
}

// isSmallCellExact reports whether the cell ran few enough attempts for
// the quantile sketch to still be in its exact startup phase.
func isSmallCellExact(row map[string]any) bool {
	a, ok := row["attempts"].(float64)
	return ok && a <= 51
}

// TestAggregateFingerprints pins the cache-safety contract: adding the
// aggregate field must not move exact-mode fingerprints (omitempty), and
// the aggregated variant of a document must fingerprint differently so
// result caches never serve one mode for the other.
func TestAggregateFingerprints(t *testing.T) {
	doc, err := Parse("fp.json", []byte(minimal))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "aggregate") {
		t.Fatalf("exact-mode document marshals an aggregate key (breaks old fingerprints): %s", b)
	}
	exactFP := doc.fingerprint()
	doc.Outputs.Aggregate = true
	if aggFP := doc.fingerprint(); aggFP == exactFP {
		t.Fatal("aggregated document has the same fingerprint as the exact one")
	}
}

// TestAggregatePercentilesFinite: aggregated percentile fields exist and
// are finite on a cell large enough to push the sketch past the values it
// keeps inline.
func TestAggregatePercentilesFinite(t *testing.T) {
	src := `{
  "version": 1,
  "name": "agg-large",
  "sites": [{"preset": "sandhills", "slots": 24}],
  "workload": {
    "params": {"num_clusters": 400, "max_cluster_size": 60, "size_exponent": 0.5, "mean_read_len": 900},
    "n": [120], "seeds": [7]
  },
  "outputs": {"percentiles": [5, 50, 95], "aggregate": true}
}`
	lines := runLines(t, src, 0)
	var row map[string]any
	if err := json.Unmarshal(lines[1], &row); err != nil {
		t.Fatal(err)
	}
	if a := row["attempts"].(float64); a <= 51 {
		t.Fatalf("cell too small to push the sketch past its inline values: %v attempts", a)
	}
	prev := math.Inf(-1)
	for _, key := range []string{"kickstart_p5", "kickstart_p50", "kickstart_p95"} {
		v, ok := row[key].(float64)
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s = %v, want a finite float", key, row[key])
		}
		if v < prev {
			t.Errorf("%s = %v below the previous percentile %v (must be monotone)", key, v, prev)
		}
		prev = v
	}
}
