package blast2cap3

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pegflow/internal/bio/blast"
	"pegflow/internal/bio/cap3"
	"pegflow/internal/bio/datagen"
	"pegflow/internal/bio/fasta"
	"pegflow/internal/engine"
	"pegflow/internal/workflow"
)

// writeInputs materializes a synthetic dataset as the two workflow input
// files.
func writeInputs(t *testing.T, dir string, ds *datagen.Dataset) {
	t.Helper()
	if err := fasta.WriteFile(filepath.Join(dir, "transcripts.fasta"), ds.Transcripts); err != nil {
		t.Fatal(err)
	}
	if err := blast.WriteTabularFile(filepath.Join(dir, "alignments.out"), ds.TruthHits); err != nil {
		t.Fatal(err)
	}
}

func TestStagesPipelineMatchesRunSerial(t *testing.T) {
	ds, err := datagen.Generate(datagen.DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	writeInputs(t, dir, ds)
	const n = 3
	params := cap3.DefaultParams()

	// Run the stages by hand in dependency order.
	if err := stageCreateListTranscripts(dir, "transcripts.fasta", "transcripts_dict.txt"); err != nil {
		t.Fatal(err)
	}
	if err := stageCreateListAlignments(dir, "alignments.out", "alignments_list.txt"); err != nil {
		t.Fatal(err)
	}
	if err := stageSplit(dir, "alignments.out", n); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if err := stageRunCAP3(dir, "transcripts_dict.txt",
			"protein_"+strconv.Itoa(i)+".txt", "joined_"+strconv.Itoa(i)+".fasta", params); err != nil {
			t.Fatal(err)
		}
	}
	if err := stageMerge(dir, n, "joined_all.fasta"); err != nil {
		t.Fatal(err)
	}
	if err := stageMergeNotJoined(dir, "joined_all.fasta", "transcripts_dict.txt", "final_assembly.fasta"); err != nil {
		t.Fatal(err)
	}

	want, err := RunSerial(ds.Transcripts, ds.TruthHits, params)
	if err != nil {
		t.Fatal(err)
	}
	sameAssembly(t, dir, want.Assembly)
}

// runWorkflow writes ds into dir and runs the n-chunk workflow there,
// failing t unless every job succeeds.
func runWorkflow(t *testing.T, dir string, ds *datagen.Dataset, n int) *engine.Result {
	t.Helper()
	writeInputs(t, dir, ds)
	_, res, err := RunWorkflow(dir, n, 2, cap3.DefaultParams())
	if err != nil {
		t.Fatalf("n=%d: %v", n, err)
	}
	if !res.Success {
		for _, r := range res.Log.Failures() {
			t.Logf("failure: %s: %s", r.JobID, r.ExitMessage)
		}
		t.Fatalf("n=%d: workflow failed: unfinished %v", n, res.Unfinished)
	}
	return res
}

// sameAssembly fails t unless dir's final_assembly.fasta holds the bytes
// the serial assembly want is written as.
func sameAssembly(t *testing.T, dir string, want []*fasta.Record) {
	t.Helper()
	got, err := os.ReadFile(filepath.Join(dir, "final_assembly.fasta"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fasta.WriteAll(&buf, want); err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(buf.String(), "\n")
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("final_assembly.fasta line %d is %q, serial %q", i+1, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("final_assembly.fasta has %d lines, serial %d", len(gotLines), len(wantLines))
	}
}

// TestWorkflowEndToEndLocalExecutor is the golden integration test: run
// the same abstract DAX the paper's experiments use, planned for a local
// site and executed with the real transformation registry under the
// DAGMan-style engine, and check the final assembly equals the serial
// reference.
func TestWorkflowEndToEndLocalExecutor(t *testing.T) {
	ds, err := datagen.Generate(datagen.DefaultConfig(31))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	const n = 4
	res := runWorkflow(t, dir, ds, n)
	if res.Log.Len() != n+5 {
		t.Errorf("attempts = %d, want %d", res.Log.Len(), n+5)
	}
	want, err := RunSerial(ds.Transcripts, ds.TruthHits, cap3.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sameAssembly(t, dir, want.Assembly)
	// Intermediate artifacts must exist (protein chunks, joined files).
	for i := 1; i <= n; i++ {
		for _, name := range []string{"protein_", "joined_"} {
			ext := ".txt"
			if name == "joined_" {
				ext = ".fasta"
			}
			if _, err := os.Stat(filepath.Join(dir, name+strconv.Itoa(i)+ext)); err != nil {
				t.Errorf("missing intermediate %s%d%s: %v", name, i, ext, err)
			}
		}
	}
}

func TestStageSplitPreservesAllClusters(t *testing.T) {
	ds, err := datagen.Generate(datagen.DefaultConfig(77))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	writeInputs(t, dir, ds)
	const n = 3
	if err := stageSplit(dir, "alignments.out", n); err != nil {
		t.Fatal(err)
	}
	// Every transcript with a hit appears in exactly one chunk file.
	seen := map[string]int{}
	for i := 1; i <= n; i++ {
		hits, err := blast.ParseTabularFile(filepath.Join(dir, "protein_"+strconv.Itoa(i)+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hits {
			seen[h.QueryID]++
		}
	}
	clusters, err := clusterByProtein(ds.TruthHits)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range clusters {
		total += len(c.TranscriptIDs)
		for _, id := range c.TranscriptIDs {
			if seen[id] != 1 {
				t.Errorf("transcript %s appears %d times across chunks", id, seen[id])
			}
		}
	}
	if len(seen) != total {
		t.Errorf("chunk files carry %d transcripts, clusters have %d", len(seen), total)
	}
}

func TestStageErrorsOnMissingFiles(t *testing.T) {
	dir := t.TempDir()
	if err := stageCreateListTranscripts(dir, "missing.fasta", "out"); err == nil {
		t.Error("missing transcripts accepted")
	}
	if err := stageSplit(dir, "missing.out", 2); err == nil {
		t.Error("missing alignments accepted")
	}
	if err := stageSplit(dir, "missing.out", 0); err == nil {
		t.Error("n=0 accepted")
	}
	if err := stageRunCAP3(dir, "no_dict", "no_chunk", "out", cap3.DefaultParams()); err == nil {
		t.Error("missing dict accepted")
	}
	if err := stageMerge(dir, 1, "out"); err == nil {
		t.Error("missing joined file accepted")
	}
	if err := stageMergeNotJoined(dir, "no_joined", "no_dict", "out"); err == nil {
		t.Error("missing inputs accepted")
	}
}

// TestStagesRefuseDuplicateTranscript: the stages that read the
// transcripts refuse a duplicated ID, as RunSerial does.
func TestStagesRefuseDuplicateTranscript(t *testing.T) {
	dir := t.TempDir()
	trs := []*fasta.Record{{ID: "a", Seq: []byte("ACGT")}, {ID: "a", Seq: []byte("TTGA")}}
	if err := fasta.WriteFile(filepath.Join(dir, "transcripts.fasta"), trs); err != nil {
		t.Fatal(err)
	}
	if err := blast.WriteTabularFile(filepath.Join(dir, "protein_1.txt"), nil); err != nil {
		t.Fatal(err)
	}
	if err := stageCreateListTranscripts(dir, "transcripts.fasta", "dict"); err == nil {
		t.Error("create_list_transcripts accepted a duplicate transcript")
	}
	if err := stageRunCAP3(dir, "transcripts.fasta", "protein_1.txt", "out", cap3.DefaultParams()); err == nil {
		t.Error("run_cap3 accepted a duplicate transcript")
	}
}

func TestRegistryCoversAllTransformations(t *testing.T) {
	reg := registry(cap3.DefaultParams())
	for _, tr := range workflow.Transformations() {
		if _, ok := reg[tr]; !ok {
			t.Errorf("registry missing transformation %q", tr)
		}
	}
	// Argument validation paths.
	bad := &taskContext{Args: []string{"x"}, WorkDir: t.TempDir()}
	for name, fn := range reg {
		if err := fn(bad); err == nil {
			t.Errorf("%s accepted bad args", name)
		}
	}
}
