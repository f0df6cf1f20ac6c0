// Command bench is pegflow's benchmark: five workloads through the
// program's two front doors (scenario documents and HTTP), one schema of
// end-to-end and per-layer numbers, and a correctness gate in the same
// command. README.md in this directory is the manual.
//
//	go run ./bench                              # every workload, untraced then traced
//	go run ./bench -workload big_run -trace 0   # one run, as the PR driver makes them
//	go run ./bench -runs 10 -trace 0 -out .bench_build/a.json
//	go run ./bench -compare .bench_build/a.json .bench_build/b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// report is the one schema results are stored in (-out) and compared
// from (-compare): every run of every workload, with its environment.
type report struct {
	Schema  string       `json:"schema"`
	Env     environment  `json:"env"`
	Seed    uint64       `json:"seed"`
	Seconds float64      `json:"seconds"`
	Quick   bool         `json:"quick,omitempty"`
	Runs    []*runResult `json:"runs"`
}

const reportSchema = "pegflow-bench/1"

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    string
	quick    bool
	runs     int
	out      string
	spans    string
	compare  bool
	describe bool
	reportFD int
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run this workload in this process and end with one JSON result line (default: all five, each in its own child process)")
	fs.Uint64Var(&o.seed, "seed", 42, "seed every generated document derives from")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "how long one run measures (rounds have fixed work; this sets how many)")
	fs.StringVar(&o.trace, "trace", "both", "0: end-to-end metrics only; 1: traced pass and per-layer metrics only; both")
	fs.BoolVar(&o.quick, "quick", false, "smoke-test sizes: ~1/50 of the work, one set-up, one round")
	fs.IntVar(&o.runs, "runs", 1, "runs per workload, run i using seed+i (all-workload mode)")
	fs.StringVar(&o.out, "out", "", "write every run's result to this file as JSON (all-workload mode)")
	fs.StringVar(&o.spans, "spans", "", "write the traced pass's spans to this file as JSON (-workload mode)")
	fs.BoolVar(&o.compare, "compare", false, "compare two -out files: bench -compare a.json b.json")
	fs.BoolVar(&o.describe, "describe", false, "print BENCHMARK.json as the metric registry defines it (go run ./bench -describe > BENCHMARK.json)")
	fs.IntVar(&o.reportFD, "report-fd", 0, "internal: file descriptor the child writes its full result to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch o.trace {
	case "0", "false":
		o.trace = "0"
	case "1", "true":
		o.trace = "1"
	case "both":
	default:
		fmt.Fprintf(stderr, "bench: -trace wants 0, 1 or both, got %q\n", o.trace)
		return 2
	}
	switch {
	case o.describe:
		b, err := json.MarshalIndent(describe(), "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", b)
		return 0
	case o.compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare wants two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case fs.NArg() != 0:
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	case o.workload != "":
		return runOne(o, stdout, stderr)
	default:
		return runAll(o, stdout, stderr)
	}
}

func (o options) config(def *workloadDef, log io.Writer) runConfig {
	cfg := runConfig{
		def: def, seed: o.seed, seconds: o.seconds, trace: o.trace, quick: o.quick,
		sz: fullSizes(), setups: 3, setupFor: 2 * time.Second, minRounds: 7, warmup: warmUp, refSorts: refSorts, log: log,
	}
	if o.quick {
		cfg.sz, cfg.setups, cfg.setupFor, cfg.minRounds, cfg.warmup, cfg.refSorts = quickSizes(), 1, 0, 1, 0, 10
	}
	return cfg
}

// resultLine is the last line of standard output of a -workload run.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func finalLine(res *runResult) ([]byte, error) {
	line := resultLine{
		Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]lineMetric),
	}
	for _, set := range []map[string]value{res.Metrics, res.Layers} {
		for name, v := range set {
			line.Metrics[name] = lineMetric{v.Value, v.Unit}
		}
	}
	return json.Marshal(line)
}

// runOne runs one workload in this process: the PR driver's entry point,
// and what runAll starts once per workload.
func runOne(o options, stdout, stderr io.Writer) int {
	def := findWorkload(o.workload)
	if def == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	res, err := runWorkload(o.config(def, stderr))
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	printResult(stdout, res)
	if o.spans != "" {
		if err := writeJSON(o.spans, res.spans); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if o.reportFD > 0 {
		pipe := os.NewFile(uintptr(o.reportFD), "report")
		err := json.NewEncoder(pipe).Encode(res)
		if cerr := pipe.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: reporting to the parent: %v\n", err)
			return 1
		}
	} else { // a child's parent has the full result already
		line, err := finalLine(res)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runAll runs every workload, each run in a child process of its own (a
// re-exec of this binary) so that peak RSS, the plan caches and the
// collector's state start fresh for each.
func runAll(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	rep := report{Schema: reportSchema, Env: readEnvironment(), Seed: o.seed, Seconds: o.seconds, Quick: o.quick}
	status := 0
	for i := range workloads {
		for k := 0; k < o.runs; k++ {
			child := o
			child.workload, child.seed = workloads[i].name, o.seed+uint64(k)
			res, err := runChild(exe, child, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", child.workload, err)
				status = 1
				continue
			}
			if !res.Correct {
				status = 1
			}
			rep.Runs = append(rep.Runs, res)
		}
	}
	if o.out != "" {
		if err := writeJSON(o.out, rep); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if o.runs > 1 {
		printSpreads(stdout, &rep)
	}
	if status != 0 {
		fmt.Fprintln(stderr, "bench: FAILED: a run failed or a correctness check did not hold")
	}
	return status
}

// runChild starts one -workload run and reads its full result from a pipe.
func runChild(exe string, o options, stdout, stderr io.Writer) (*runResult, error) {
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	defer r.Close()
	args := []string{
		"-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", o.trace,
		"-report-fd", "3",
	}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	cmd.ExtraFiles = []*os.File{w} // fd 3 in the child
	if err := cmd.Start(); err != nil {
		w.Close()
		return nil, err
	}
	w.Close() // the child holds the write end now
	data, readErr := io.ReadAll(r)
	waitErr := cmd.Wait()
	res := &runResult{}
	if err := json.Unmarshal(data, res); err != nil {
		if waitErr != nil {
			return nil, waitErr
		}
		if readErr != nil {
			return nil, readErr
		}
		return nil, fmt.Errorf("child reported no result: %v", err)
	}
	// A child that reported a result and exited non-zero found a
	// correctness problem; the result says which.
	return res, nil
}
