package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates the figure goldens (make figures does, and also
// rewrites BENCH_cluster.json):
//
//	go test ./cmd/experiments -run TestFigureGoldens -update
var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestFigureGoldens pins the stdout of every figure at the canonical seed.
func TestFigureGoldens(t *testing.T) {
	for _, fig := range []string{"4", "5", "ablations", "cloud", "seeds", "ensemble", "cluster"} {
		t.Run(fig, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(&buf, fig, canonicalSeed, ""); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "fig_"+fig+".golden")
			if *update {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `make figures` to regenerate)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("-fig %s differs from %s:\n--- got ---\n%s--- want ---\n%s", fig, path, buf.Bytes(), want)
			}
		})
	}
}

// TestClusterFigureWritesBenchCluster: -fig cluster -bench-out writes the
// checked-in BENCH_cluster.json byte for byte.
func TestClusterFigureWritesBenchCluster(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_cluster.json")
	var buf bytes.Buffer
	if err := run(&buf, "cluster", canonicalSeed, out); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "BENCH_cluster.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-fig cluster -bench-out differs from BENCH_cluster.json (run `make figures`):\n%s", got)
	}
}
