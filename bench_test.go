// Benchmarks of the substrates: the real (non-simulated) blast2cap3
// pipeline and its assembler, search and alignment kernels. The paper's
// figures are scenario documents (`go run ./cmd/experiments`, pinned by
// its goldens) and the run path's throughput is the repo benchmark
// (`go run ./bench`). Run:
//
//	go test -bench=. -benchmem
package pegflow_test

import (
	"path/filepath"
	"testing"

	"pegflow/internal/bio/align"
	"pegflow/internal/bio/blast"
	"pegflow/internal/bio/blast2cap3"
	"pegflow/internal/bio/cap3"
	"pegflow/internal/bio/datagen"
	"pegflow/internal/bio/fasta"
)

const benchSeed = 42

// BenchmarkRealSerialVsParallel runs the real (non-simulated) blast2cap3
// pipeline on synthetic data: the serial driver against the 4-chunk
// workflow on files under the local executor (4 slots), checking in
// passing that the workflow succeeds.
func BenchmarkRealSerialVsParallel(b *testing.B) {
	ds, err := datagen.Generate(datagen.DefaultConfig(benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := blast2cap3.RunSerial(ds.Transcripts, ds.TruthHits, cap3.DefaultParams()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("workflow-n=4", func(b *testing.B) {
		dir := b.TempDir()
		if err := fasta.WriteFile(filepath.Join(dir, "transcripts.fasta"), ds.Transcripts); err != nil {
			b.Fatal(err)
		}
		if err := blast.WriteTabularFile(filepath.Join(dir, "alignments.out"), ds.TruthHits); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, res, err := blast2cap3.RunWorkflow(dir, 4, 4, cap3.DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			if !res.Success {
				b.Fatalf("workflow failed: unfinished %v", res.Unfinished)
			}
		}
	})
}

// BenchmarkCAP3Assemble measures the assembler kernel.
func BenchmarkCAP3Assemble(b *testing.B) {
	ds, err := datagen.Generate(datagen.Config{
		Proteins: 1, ProteinLen: 200, ClusterSizes: []int{8},
		FragmentLen: 300, OverlapLen: 120, MutationRate: 0.01, Seed: benchSeed,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cap3.Assemble(ds.Transcripts, cap3.DefaultParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBLASTXSearch measures the translated search kernel.
func BenchmarkBLASTXSearch(b *testing.B) {
	ds, err := datagen.Generate(datagen.DefaultConfig(benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	db, err := blast.NewDB(ds.Proteins, blast.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	query := ds.Transcripts[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Search(query.ID, query.Seq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverlapAlignment measures the dovetail DP kernel.
func BenchmarkOverlapAlignment(b *testing.B) {
	ds, err := datagen.Generate(datagen.DefaultConfig(benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	a := ds.Transcripts[0].Seq
	c := ds.Transcripts[1].Seq
	p := cap3.DefaultParams().Overlap
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		align.Overlap(a, c, p)
	}
}
