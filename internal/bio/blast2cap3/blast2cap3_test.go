package blast2cap3

import (
	"fmt"
	"slices"
	"strconv"
	"testing"

	"pegflow/internal/bio/blast"
	"pegflow/internal/bio/cap3"
	"pegflow/internal/bio/datagen"
	"pegflow/internal/bio/fasta"
)

func hit(q, s string, bits float64) blast.Hit {
	return blast.Hit{QueryID: q, SubjectID: s, PercentIdentity: 95, Length: 50,
		QStart: 1, QEnd: 150, SStart: 1, SEnd: 50, EValue: 1e-20, BitScore: bits}
}

func TestClusterByProteinBestHitWins(t *testing.T) {
	hits := []blast.Hit{
		hit("tr1", "protA", 100),
		hit("tr1", "protB", 200), // better
		hit("tr2", "protB", 90),
		hit("tr3", "protA", 50),
	}
	clusters, err := clusterByProtein(hits)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 2 {
		t.Fatalf("clusters = %d", len(clusters))
	}
	// Sorted by protein: protA then protB.
	if clusters[0].Protein != "protA" || len(clusters[0].TranscriptIDs) != 1 ||
		clusters[0].TranscriptIDs[0] != "tr3" {
		t.Errorf("protA cluster = %+v", clusters[0])
	}
	if clusters[1].Protein != "protB" || len(clusters[1].TranscriptIDs) != 2 {
		t.Errorf("protB cluster = %+v", clusters[1])
	}
}

func TestClusterByProteinTieBreaksDeterministically(t *testing.T) {
	hits := []blast.Hit{hit("tr1", "protB", 100), hit("tr1", "protA", 100)}
	clusters, err := clusterByProtein(hits)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 1 || clusters[0].Protein != "protA" {
		t.Errorf("tie did not break to lexicographically first: %+v", clusters)
	}
}

func TestClusterByProteinRejectsEmptyIDs(t *testing.T) {
	if _, err := clusterByProtein([]blast.Hit{{QueryID: "", SubjectID: "p"}}); err == nil {
		t.Error("empty query accepted")
	}
}

func TestSplitClustersRoundRobin(t *testing.T) {
	var clusters []cluster
	for i := 0; i < 10; i++ {
		clusters = append(clusters, cluster{Protein: fmt.Sprintf("p%02d", i)})
	}
	chunks, err := splitClusters(clusters, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 3 {
		t.Fatalf("chunks = %d", len(chunks))
	}
	if len(chunks[0]) != 4 || len(chunks[1]) != 3 || len(chunks[2]) != 3 {
		t.Errorf("chunk sizes = %d/%d/%d", len(chunks[0]), len(chunks[1]), len(chunks[2]))
	}
	if chunks[0][0].Protein != "p00" || chunks[1][0].Protein != "p01" {
		t.Errorf("assignment not round-robin")
	}
	if _, err := splitClusters(clusters, 0); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestSplitClustersMoreChunksThanClusters(t *testing.T) {
	chunks, err := splitClusters([]cluster{{Protein: "p"}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	for _, c := range chunks {
		if len(c) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 1 {
		t.Errorf("non-empty chunks = %d", nonEmpty)
	}
}

func TestRunSerialOnSyntheticData(t *testing.T) {
	ds, err := datagen.Generate(datagen.DefaultConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSerial(ds.Transcripts, ds.TruthHits, cap3.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Contigs == 0 {
		t.Fatal("no contigs assembled from clustered synthetic data")
	}
	if res.Joined < 2*res.Contigs {
		t.Errorf("joined = %d for %d contigs", res.Joined, res.Contigs)
	}
	// The assembly must shrink relative to the input (the paper cites
	// 8-9% for wheat; our synthetic clusters shrink far more).
	if len(res.Assembly) >= len(ds.Transcripts) {
		t.Errorf("assembly size %d not below input %d", len(res.Assembly), len(ds.Transcripts))
	}
	if res.ReductionFraction(len(ds.Transcripts)) <= 0 {
		t.Error("no reduction")
	}
	// Noise transcripts must pass through untouched.
	found := 0
	for _, rec := range res.Assembly {
		if len(rec.ID) >= 8 && rec.ID[:8] == "tr_noise" {
			found++
		}
	}
	if found != 5 {
		t.Errorf("noise passthrough = %d, want 5", found)
	}
}

// TestWorkflowEquivalentToSerialForAnyN: the n-chunk workflow writes the
// serial assembly's bytes for any n, including more chunks than clusters,
// when every transcript also has a weaker hit to another protein, as
// BLASTX reports.
func TestWorkflowEquivalentToSerialForAnyN(t *testing.T) {
	ds, err := datagen.Generate(datagen.DefaultConfig(23))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range slices.Clone(ds.TruthHits) {
		weaker := h
		if weaker.SubjectID = ds.Proteins[0].ID; weaker.SubjectID == h.SubjectID {
			weaker.SubjectID = ds.Proteins[1].ID
		}
		weaker.BitScore /= 2
		ds.TruthHits = append(ds.TruthHits, weaker)
	}
	serial, err := RunSerial(ds.Transcripts, ds.TruthHits, cap3.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3, 7, 50} {
		t.Run(strconv.Itoa(n), func(t *testing.T) {
			dir := t.TempDir()
			runWorkflow(t, dir, ds, n)
			sameAssembly(t, dir, serial.Assembly)
		})
	}
}

// TestAssembleChunkRecords: a contig record is named <protein>_<contig>
// and lists its joined transcripts in ID order, whatever their layout
// order; a cluster member that joins nothing is listed nowhere and passes
// through the merge.
func TestAssembleChunkRecords(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{
		Proteins: 1, ProteinLen: 120, ClusterSizes: []int{4}, FragmentLen: 240,
		OverlapLen: 90, MutationRate: 0.01, NoiseTranscripts: 1, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Name the four fragments against their order along the protein.
	ids := []string{"tr_d", "tr_c", "tr_b", "tr_a", "tr_noise_001"}
	for i, tr := range ds.Transcripts {
		tr.ID = ids[i]
	}
	index, err := indexTranscripts(ds.Transcripts)
	if err != nil {
		t.Fatal(err)
	}
	protein := ds.Proteins[0].ID
	contigs, err := assembleChunk([]cluster{{Protein: protein, TranscriptIDs: ids}}, index, cap3.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(contigs) != 1 || contigs[0].ID != protein+"_Contig1" {
		t.Fatalf("contigs = %+v, want one named %s_Contig1", contigs, protein)
	}
	if want := "joined=tr_a;tr_b;tr_c;tr_d"; contigs[0].Desc != want {
		t.Errorf("desc = %q, want %q", contigs[0].Desc, want)
	}
	out := mergeNotJoined(contigs, ds.Transcripts)
	if len(out) != 2 || out[1].ID != "tr_noise_001" {
		t.Errorf("merge = %d records, want the contig and tr_noise_001", len(out))
	}
}

func TestAssembleChunkUnknownTranscript(t *testing.T) {
	chunk := []cluster{{Protein: "p", TranscriptIDs: []string{"ghost", "ghost2"}}}
	_, err := assembleChunk(chunk, map[string]*fasta.Record{}, cap3.DefaultParams())
	if err == nil {
		t.Error("unknown transcript accepted")
	}
}

func TestMergeNotJoinedPassthrough(t *testing.T) {
	contigs := []*fasta.Record{{ID: "c1", Desc: "joined=b", Seq: []byte("ACGT")}}
	transcripts := []*fasta.Record{
		{ID: "a", Seq: []byte("AA")},
		{ID: "b", Seq: []byte("CC")},
		{ID: "c", Seq: []byte("GG")},
	}
	out := mergeNotJoined(contigs, transcripts)
	if len(out) != 3 {
		t.Fatalf("out = %d records", len(out))
	}
	ids := []string{out[0].ID, out[1].ID, out[2].ID}
	if ids[0] != "c1" || ids[1] != "a" || ids[2] != "c" {
		t.Errorf("ids = %v", ids)
	}
}

func TestRunSerialDuplicateTranscript(t *testing.T) {
	trs := []*fasta.Record{{ID: "a", Seq: []byte("ACGT")}, {ID: "a", Seq: []byte("ACGT")}}
	if _, err := RunSerial(trs, nil, cap3.DefaultParams()); err == nil {
		t.Error("duplicate transcript accepted")
	}
}

func TestReductionFraction(t *testing.T) {
	r := &Result{Assembly: make([]*fasta.Record, 91)}
	if got := r.ReductionFraction(100); got != 0.09 {
		t.Errorf("reduction = %v, want 0.09 (the paper's 8-9%% band)", got)
	}
	if got := r.ReductionFraction(0); got != 0 {
		t.Errorf("zero input reduction = %v", got)
	}
}
