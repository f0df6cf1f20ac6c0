package blast2cap3

import (
	"path/filepath"
	"testing"
	"testing/quick"

	"pegflow/internal/bio/cap3"
	"pegflow/internal/bio/datagen"
	"pegflow/internal/bio/fasta"
	"pegflow/internal/sim/rng"
)

// Property: conservation of transcripts — every input transcript appears
// in the workflow's final assembly exactly once, either inside a contig's
// joined set or as a passthrough record, for any dataset shape and chunk
// count.
func TestPropertyTranscriptConservation(t *testing.T) {
	f := func(seedRaw uint16, nRaw, proteinsRaw uint8) bool {
		cfg := datagen.DefaultConfig(uint64(seedRaw) + 1)
		cfg.Proteins = int(proteinsRaw%6) + 2
		cfg.NoiseTranscripts = int(proteinsRaw % 4)
		cfg.ClusterSizes = rng.ZipfSizes(cfg.Proteins, 1.0, 6)
		ds, err := datagen.Generate(cfg)
		if err != nil {
			return false
		}
		dir := t.TempDir()
		runWorkflow(t, dir, ds, int(nRaw%10)+1)
		assembly, err := fasta.ReadFile(filepath.Join(dir, "final_assembly.fasta"))
		if err != nil {
			return false
		}
		seen := make(map[string]int)
		for _, rec := range assembly {
			seen[rec.ID]++
			for _, id := range joinedIDs(rec) {
				seen[id]++
			}
		}
		for _, tr := range ds.Transcripts {
			if seen[tr.ID] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// Property: the assembly never grows relative to the input.
func TestPropertyAssemblyNeverGrows(t *testing.T) {
	f := func(seedRaw uint16) bool {
		ds, err := datagen.Generate(datagen.DefaultConfig(uint64(seedRaw) + 100))
		if err != nil {
			return false
		}
		res, err := RunSerial(ds.Transcripts, ds.TruthHits, cap3.DefaultParams())
		if err != nil {
			return false
		}
		return len(res.Assembly) <= len(ds.Transcripts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// Property: clustering by protein covers every hit query exactly once.
func TestPropertyClusterPartition(t *testing.T) {
	f := func(seedRaw uint16) bool {
		ds, err := datagen.Generate(datagen.DefaultConfig(uint64(seedRaw) + 500))
		if err != nil {
			return false
		}
		clusters, err := clusterByProtein(ds.TruthHits)
		if err != nil {
			return false
		}
		seen := make(map[string]int)
		for _, c := range clusters {
			for _, id := range c.TranscriptIDs {
				seen[id]++
			}
		}
		queries := make(map[string]bool)
		for _, h := range ds.TruthHits {
			queries[h.QueryID] = true
		}
		if len(seen) != len(queries) {
			return false
		}
		for _, n := range seen {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
