// Command datagen writes a synthetic protein-guided-assembly dataset:
// transcripts.fasta, alignments.out and proteins.fasta — the stand-in for
// the paper's wheat data (NCBI PRJNA191053).
//
//	datagen -out ./data -proteins 50 -zipf 1.0 -maxcluster 12
//
// By default alignments come from generation provenance (instant); with
// -blast they are produced by actually searching every transcript against
// the protein database with the built-in BLASTX implementation.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"pegflow/internal/bio/blast"
	"pegflow/internal/bio/datagen"
	"pegflow/internal/bio/fasta"
	"pegflow/internal/sim/rng"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("datagen", flag.ExitOnError)
	out := fs.String("out", ".", "output directory")
	proteins := fs.Int("proteins", 20, "number of proteins (clusters)")
	proteinLen := fs.Int("protein-len", 120, "protein length in residues")
	fragment := fs.Int("fragment", 240, "transcript fragment length")
	overlap := fs.Int("overlap", 90, "fragment overlap length")
	mutation := fs.Float64("mutation", 0.01, "per-base substitution rate")
	noise := fs.Int("noise", 10, "unrelated noise transcripts")
	zipf := fs.Float64("zipf", 0, "cluster-size Zipf exponent (0 = uniform 3 per cluster)")
	maxCluster := fs.Int("maxcluster", 8, "largest cluster size when -zipf is set")
	seed := fs.Uint64("seed", 42, "generation seed")
	useBlast := fs.Bool("blast", false, "produce alignments by running the real BLASTX search")
	fs.Parse(args) // ExitOnError: a bad flag exits 2, -h exits 0

	cfg := datagen.Config{
		Proteins:         *proteins,
		ProteinLen:       *proteinLen,
		FragmentLen:      *fragment,
		OverlapLen:       *overlap,
		MutationRate:     *mutation,
		NoiseTranscripts: *noise,
		Seed:             *seed,
	}
	// A non-positive count is left for Generate to refuse.
	if *zipf > 0 && *proteins > 0 {
		cfg.ClusterSizes = rng.ZipfSizes(*proteins, *zipf, *maxCluster)
	}
	ds, err := datagen.Generate(cfg)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	if err := fasta.WriteFile(filepath.Join(*out, "transcripts.fasta"), ds.Transcripts); err != nil {
		return err
	}
	var prots []*fasta.Record
	for _, p := range ds.Proteins {
		prots = append(prots, &fasta.Record{ID: p.ID, Seq: p.Seq})
	}
	if err := fasta.WriteFile(filepath.Join(*out, "proteins.fasta"), prots); err != nil {
		return err
	}
	hits := ds.TruthHits
	if *useBlast {
		hits, err = ds.AlignWithBLAST(blast.DefaultParams())
		if err != nil {
			return err
		}
	}
	if err := blast.WriteTabularFile(filepath.Join(*out, "alignments.out"), hits); err != nil {
		return err
	}
	fmt.Printf("wrote %d transcripts, %d proteins, %d alignments to %s\n",
		len(ds.Transcripts), len(ds.Proteins), len(hits), *out)
	return nil
}
