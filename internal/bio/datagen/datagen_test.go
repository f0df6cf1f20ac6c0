package datagen

import (
	"strings"
	"testing"

	"pegflow/internal/bio/blast"
	"pegflow/internal/sim/rng"
)

func TestGenerateShape(t *testing.T) {
	cfg := DefaultConfig(1)
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Proteins) != cfg.Proteins {
		t.Errorf("proteins = %d", len(ds.Proteins))
	}
	wantTr := cfg.Proteins*3 + cfg.NoiseTranscripts
	if len(ds.Transcripts) != wantTr {
		t.Errorf("transcripts = %d, want %d", len(ds.Transcripts), wantTr)
	}
	if len(ds.TruthHits) != cfg.Proteins*3 {
		t.Errorf("truth hits = %d", len(ds.TruthHits))
	}
	for _, tr := range ds.Transcripts {
		if strings.Trim(string(tr.Seq), "ACGTNacgtn") != "" {
			t.Fatalf("transcript %s is not DNA", tr.ID)
		}
		if len(tr.Seq) == 0 || len(tr.Seq) > cfg.FragmentLen {
			t.Errorf("transcript %s length %d", tr.ID, len(tr.Seq))
		}
	}
	for _, p := range ds.Proteins {
		if len(p.Seq) != cfg.ProteinLen {
			t.Errorf("protein %s length %d", p.ID, len(p.Seq))
		}
		if p.Seq[0] != 'M' {
			t.Errorf("protein %s does not start with Met", p.ID)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(DefaultConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(DefaultConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Transcripts) != len(b.Transcripts) {
		t.Fatal("sizes differ")
	}
	for i := range a.Transcripts {
		if string(a.Transcripts[i].Seq) != string(b.Transcripts[i].Seq) {
			t.Fatal("same seed produced different transcripts")
		}
	}
	c, err := Generate(DefaultConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	if string(a.Transcripts[0].Seq) == string(c.Transcripts[0].Seq) {
		t.Error("different seeds produced identical first transcript")
	}
}

func TestGenerateFragmentsOverlap(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.MutationRate = 0 // exact overlaps
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Consecutive fragments of the same cluster share OverlapLen bases.
	step := cfg.FragmentLen - cfg.OverlapLen
	gene := ds.Genes["prot0001"]
	fr1, fr2 := ds.Transcripts[0], ds.Transcripts[1]
	if string(fr1.Seq) != string(gene[:cfg.FragmentLen]) {
		t.Error("fragment 1 does not tile the gene")
	}
	if string(fr2.Seq[:cfg.OverlapLen]) != string(fr1.Seq[step:]) {
		t.Error("fragments 1 and 2 do not overlap by OverlapLen")
	}
}

func TestGenerateZipfSizes(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Proteins = 5
	cfg.ClusterSizes = rng.ZipfSizes(5, 1.0, 8)
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, h := range ds.TruthHits {
		counts[h.SubjectID]++
	}
	if counts["prot0001"] != 8 {
		t.Errorf("largest cluster = %d, want 8", counts["prot0001"])
	}
	if counts["prot0005"] < 1 {
		t.Error("smallest cluster empty")
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []Config{
		{Proteins: 0, ProteinLen: 10, FragmentLen: 100, OverlapLen: 10},
		{Proteins: 1, ProteinLen: 0, FragmentLen: 100, OverlapLen: 10},
		{Proteins: 1, ProteinLen: 10, FragmentLen: 0, OverlapLen: 0},
		{Proteins: 1, ProteinLen: 10, FragmentLen: 100, OverlapLen: 100},
		{Proteins: 1, ProteinLen: 10, FragmentLen: 100, OverlapLen: 10, MutationRate: 0.5},
		{Proteins: 2, ProteinLen: 10, FragmentLen: 100, OverlapLen: 10, ClusterSizes: []int{1}},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestTruthHitsConsistent(t *testing.T) {
	ds, err := Generate(DefaultConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	trIDs := map[string]bool{}
	for _, tr := range ds.Transcripts {
		trIDs[tr.ID] = true
	}
	protIDs := map[string]bool{}
	for _, p := range ds.Proteins {
		protIDs[p.ID] = true
	}
	for _, h := range ds.TruthHits {
		if !trIDs[h.QueryID] {
			t.Errorf("hit references unknown transcript %s", h.QueryID)
		}
		if !protIDs[h.SubjectID] {
			t.Errorf("hit references unknown protein %s", h.SubjectID)
		}
		if h.BitScore <= 0 || h.EValue > 1e-5 {
			t.Errorf("weak truth hit: %+v", h)
		}
	}
}

// TestAlignWithBLASTRecoversProvenance is the full-stack biology test: the
// generated transcripts, searched with our BLASTX implementation against
// the generated protein DB, must hit their source protein best.
func TestAlignWithBLASTRecoversProvenance(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Proteins = 4
	cfg.NoiseTranscripts = 2
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := ds.AlignWithBLAST(blast.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	best := map[string]blast.Hit{}
	for _, h := range hits {
		if cur, ok := best[h.QueryID]; !ok || h.BitScore > cur.BitScore {
			best[h.QueryID] = h
		}
	}
	recovered, total := 0, 0
	for _, tr := range ds.Transcripts {
		if len(tr.ID) >= 8 && tr.ID[:8] == "tr_noise" {
			if _, ok := best[tr.ID]; ok {
				t.Errorf("noise transcript %s got a hit", tr.ID)
			}
			continue
		}
		total++
		// Provenance is encoded in the ID: tr_<protID>_<idx>.
		wantProt := tr.ID[3 : 3+8]
		if h, ok := best[tr.ID]; ok && h.SubjectID == wantProt {
			recovered++
		}
	}
	if recovered < total*9/10 {
		t.Errorf("BLAST recovered %d/%d provenances", recovered, total)
	}
}
