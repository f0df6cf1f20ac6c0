// Command blast2cap3 runs the protein-guided assembly on real files — the
// reimplementation of Buffalo's blast2cap3 (paper §II, §V.B), in either
// the original serial mode or the workflow-decomposed mode executed by the
// DAGMan-style engine with local parallelism.
//
//	blast2cap3 -transcripts transcripts.fasta -alignments alignments.out \
//	           -workdir ./work -mode workflow -n 8 -parallel 4
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"pegflow/internal/bio/blast"
	"pegflow/internal/bio/blast2cap3"
	"pegflow/internal/bio/cap3"
	"pegflow/internal/bio/fasta"
	"pegflow/internal/stats"
)

func main() {
	transcripts := flag.String("transcripts", "", "input transcripts FASTA (required)")
	alignments := flag.String("alignments", "", "input BLASTX tabular alignments (required)")
	workdir := flag.String("workdir", ".", "working directory for intermediates and output")
	mode := flag.String("mode", "workflow", "serial or workflow")
	n := flag.Int("n", 10, "number of cluster chunks (workflow mode)")
	parallel := flag.Int("parallel", 4, "local parallelism (workflow mode)")
	minOverlap := flag.Int("overlap", 40, "CAP3 minimum overlap length")
	minIdentity := flag.Float64("identity", 0.90, "CAP3 minimum overlap identity")
	flag.Parse()

	if *transcripts == "" || *alignments == "" {
		flag.Usage()
		os.Exit(2)
	}
	params := cap3.DefaultParams()
	params.MinOverlap = *minOverlap
	params.MinIdentity = *minIdentity

	if err := run(os.Stdout, os.Stderr, *transcripts, *alignments, *workdir, *mode, *n, *parallel, params); err != nil {
		fmt.Fprintln(os.Stderr, "blast2cap3:", err)
		os.Exit(1)
	}
}

func run(stdout, stderr io.Writer, transcripts, alignments, workdir, mode string, n, parallel int, params cap3.Params) error {
	if mode != "serial" && mode != "workflow" {
		return fmt.Errorf("unknown -mode %q (want serial or workflow)", mode)
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	if err := stage(transcripts, filepath.Join(workdir, "transcripts.fasta")); err != nil {
		return err
	}
	if err := stage(alignments, filepath.Join(workdir, "alignments.out")); err != nil {
		return err
	}

	if mode == "workflow" {
		abstract, res, err := blast2cap3.RunWorkflow(workdir, n, parallel, params)
		if err != nil {
			return err
		}
		if err := stats.WriteSummary(stdout, abstract.Name, stats.Summarize(res.Log, res.Makespan)); err != nil {
			return err
		}
		if !res.Success {
			for _, r := range res.Log.Failures() {
				fmt.Fprintf(stderr, "failed: %s: %s\n", r.JobID, r.ExitMessage)
			}
			return fmt.Errorf("workflow incomplete: %d jobs unfinished", len(res.Unfinished))
		}
		fmt.Fprintf(stdout, "assembly written to %s\n", filepath.Join(workdir, "final_assembly.fasta"))
		return nil
	}
	trs, err := fasta.ReadFile(filepath.Join(workdir, "transcripts.fasta"))
	if err != nil {
		return err
	}
	hits, err := blast.ParseTabularFile(filepath.Join(workdir, "alignments.out"))
	if err != nil {
		return err
	}
	res, err := blast2cap3.RunSerial(trs, hits, params)
	if err != nil {
		return err
	}
	out := filepath.Join(workdir, "final_assembly.fasta")
	if err := fasta.WriteFile(out, res.Assembly); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "serial blast2cap3: %d clusters, %d contigs, %d transcripts joined\n",
		res.Clusters, res.Contigs, res.Joined)
	fmt.Fprintf(stdout, "assembly: %d records (%.1f%% reduction) -> %s\n",
		len(res.Assembly), 100*res.ReductionFraction(len(trs)), out)
	return nil
}

// stage copies an input file into the working directory unless it is
// already there.
func stage(src, dst string) error {
	sAbs, err := filepath.Abs(src)
	if err != nil {
		return err
	}
	dAbs, err := filepath.Abs(dst)
	if err != nil {
		return err
	}
	if sAbs == dAbs {
		return nil
	}
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}
