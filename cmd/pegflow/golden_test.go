package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update regenerates the golden fixtures:
//
//	go test ./cmd/pegflow -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden files with current output")

// runQuiet runs the subcommand with os.Stdout redirected to a pipe and
// returns what it printed along with its error.
func runQuiet(t *testing.T, fn func([]string) error, args []string) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	runErr := fn(args)
	w.Close()
	os.Stdout = old
	return <-done, runErr
}

// captureStdout is runQuiet for a subcommand that must succeed.
func captureStdout(t *testing.T, fn func([]string) error, args []string) string {
	t.Helper()
	out, err := runQuiet(t, fn, args)
	if err != nil {
		t.Fatalf("command %v failed: %v", args, err)
	}
	return out
}

// checkGolden compares got against testdata/<name>.golden, rewriting the
// fixture under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/pegflow -run TestGolden -update` to regenerate)", err)
	}
	if string(want) != got {
		t.Errorf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// daxFixture generates the n=8 abstract workflow into a temp file.
func daxFixture(t *testing.T) string {
	t.Helper()
	out := captureStdout(t, cmdDAX, []string{"-n", "8", "-seed", "42"})
	path := filepath.Join(t.TempDir(), "blast2cap3-n8.dax")
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGoldenPlan(t *testing.T) {
	dax := daxFixture(t)
	out := captureStdout(t, cmdPlan, []string{"-dax", dax, "-site", "osg", "-cluster", "4"})
	checkGolden(t, "plan_osg_cluster4", out)
}

func TestGoldenPlanMultiSite(t *testing.T) {
	dax := daxFixture(t)
	for _, policy := range []string{"round-robin", "data-aware"} {
		out := captureStdout(t, cmdPlan, []string{
			"-dax", dax, "-sites", "sandhills,osg", "-policy", policy,
		})
		checkGolden(t, "plan_multi_"+policy, out)
	}
}

func TestGoldenRun(t *testing.T) {
	dax := daxFixture(t)
	out := captureStdout(t, cmdRun, []string{
		"-dax", dax, "-site", "sandhills", "-seed", "7", "-timeline",
	})
	checkGolden(t, "run_sandhills_seed7", out)
}

// TestGoldenRunCloud pins the cloud preset through the CLI: a single -site
// on the pool-of-one path.
func TestGoldenRunCloud(t *testing.T) {
	dax := daxFixture(t)
	out := captureStdout(t, cmdRun, []string{"-dax", dax, "-site", "cloud", "-seed", "7"})
	checkGolden(t, "run_cloud_seed7", out)
}

func TestGoldenRunMultiSite(t *testing.T) {
	dax := daxFixture(t)
	out := captureStdout(t, cmdRun, []string{
		"-dax", dax, "-sites", "sandhills,osg", "-policy", "data-aware", "-seed", "7",
	})
	checkGolden(t, "run_multi_dataaware_seed7", out)
}

func TestGoldenEnsemble(t *testing.T) {
	args := []string{
		"-workflows", "8", "-n", "6", "-sites", "sandhills,osg",
		"-policy", "data-aware", "-seed", "42", "-max-inflight", "64",
	}
	out := captureStdout(t, cmdEnsemble, args)
	checkGolden(t, "ensemble_text", out)
	out = captureStdout(t, cmdEnsemble, append(args, "-json"))
	checkGolden(t, "ensemble_json", out)
}

func TestGoldenRunClusterFailover(t *testing.T) {
	dax := daxFixture(t)
	args := []string{
		"-dax", dax, "-sites", "sandhills,osg", "-policy", "round-robin",
		"-seed", "7", "-cluster", "3", "-failover",
	}
	out := captureStdout(t, cmdRun, args)
	checkGolden(t, "run_cluster_failover_seed7", out)
	// Fixed seed ⇒ byte-identical output with clustering and failover
	// enabled.
	if again := captureStdout(t, cmdRun, args); again != out {
		t.Error("clustered+failover run is not deterministic across invocations")
	}
}

func TestGoldenEnsembleClusterFailover(t *testing.T) {
	args := []string{
		"-workflows", "6", "-n", "8", "-sites", "sandhills,osg",
		"-policy", "data-aware", "-seed", "42", "-cluster", "4", "-failover",
	}
	out := captureStdout(t, cmdEnsemble, args)
	checkGolden(t, "ensemble_cluster_text", out)
	jsonArgs := append(args, "-json")
	one := captureStdout(t, cmdEnsemble, jsonArgs)
	checkGolden(t, "ensemble_cluster_json", one)
	// Byte-identical across repeated runs and planning worker counts.
	if again := captureStdout(t, cmdEnsemble, jsonArgs); again != one {
		t.Error("clustered+failover ensemble JSON not deterministic across invocations")
	}
	if many := captureStdout(t, cmdEnsemble, append(jsonArgs, "-workers", "8")); many != one {
		t.Error("clustered+failover ensemble JSON depends on worker count")
	}
}

// The ensemble report is byte-identical for any planning worker count —
// the acceptance property, exercised through the CLI surface.
func TestEnsembleJSONWorkerInvariance(t *testing.T) {
	base := []string{
		"-workflows", "8", "-n", "6", "-sites", "sandhills,osg",
		"-policy", "round-robin", "-seed", "9", "-json",
	}
	one := captureStdout(t, cmdEnsemble, append(base, "-workers", "1"))
	many := captureStdout(t, cmdEnsemble, append(base, "-workers", "8"))
	if one != many {
		t.Errorf("ensemble JSON depends on worker count:\n%s\n---\n%s", one, many)
	}
}

func TestGoldenStatisticsAndAnalyze(t *testing.T) {
	dax := daxFixture(t)
	logPath := filepath.Join(t.TempDir(), "run.jsonl")
	captureStdout(t, cmdRun, []string{
		"-dax", dax, "-site", "osg", "-seed", "11", "-log-out", logPath,
	})
	out := captureStdout(t, cmdStatistics, []string{"-log", logPath})
	// The statistics header embeds the temp log path; normalize it.
	out = strings.ReplaceAll(out, logPath, "LOG")
	checkGolden(t, "statistics_osg_seed11", out)
}
