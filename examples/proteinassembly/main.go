// Protein-guided assembly end to end with real data: generate a synthetic
// transcriptome, align it with the built-in BLASTX implementation, write
// the two workflow input files, then execute the full blast2cap3 workflow
// (the paper's Fig. 2 DAG) with real task implementations on the local
// machine, and compare the result against the serial reference.
//
//	go run ./examples/proteinassembly
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"pegflow/internal/bio/blast"
	"pegflow/internal/bio/blast2cap3"
	"pegflow/internal/bio/cap3"
	"pegflow/internal/bio/datagen"
	"pegflow/internal/bio/fasta"
	"pegflow/internal/stats"
)

func main() {
	// 1. Synthetic wheat-like dataset: 12 protein clusters with a
	// heavy-ish size profile plus noise transcripts.
	cfg := datagen.DefaultConfig(2014)
	cfg.Proteins = 12
	cfg.NoiseTranscripts = 8
	ds, err := datagen.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d proteins, %d transcripts\n", len(ds.Proteins), len(ds.Transcripts))

	// 2. "BLASTX": align transcripts against the protein DB for real.
	hits, err := ds.AlignWithBLAST(blast.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("blastx: %d alignments\n", len(hits))

	// 3. Materialize the two workflow inputs.
	dir, err := os.MkdirTemp("", "blast2cap3-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := fasta.WriteFile(filepath.Join(dir, "transcripts.fasta"), ds.Transcripts); err != nil {
		log.Fatal(err)
	}
	if err := blast.WriteTabularFile(filepath.Join(dir, "alignments.out"), hits); err != nil {
		log.Fatal(err)
	}

	// 4. Plan the blast2cap3 DAX (real mode: no runtime profiles) for
	// the local site and execute it with the real transformation registry.
	const n = 4
	abstract, res, err := blast2cap3.RunWorkflow(dir, n, 4, cap3.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	if !res.Success {
		log.Fatalf("workflow failed: %v", res.Unfinished)
	}
	if err := stats.WriteSummary(os.Stdout, abstract.Name, stats.Summarize(res.Log, res.Makespan)); err != nil {
		log.Fatal(err)
	}

	// 5. Compare against the serial reference implementation.
	final, err := fasta.ReadFile(filepath.Join(dir, "final_assembly.fasta"))
	if err != nil {
		log.Fatal(err)
	}
	serial, err := blast2cap3.RunSerial(ds.Transcripts, hits, cap3.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nworkflow assembly: %d records; serial reference: %d records\n",
		len(final), len(serial.Assembly))
	fmt.Printf("transcript reduction: %.1f%% (paper reports 8-9%% on wheat)\n",
		100*serial.ReductionFraction(len(ds.Transcripts)))
	if len(final) == len(serial.Assembly) {
		fmt.Println("workflow output matches the serial reference record-for-record count")
	}
}
