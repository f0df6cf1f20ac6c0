package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pegflow/internal/bio/blast"
	"pegflow/internal/bio/cap3"
	"pegflow/internal/bio/datagen"
	"pegflow/internal/bio/fasta"
)

// writeDataset writes the two inputs the command reads, as datagen does,
// with extra appended to the transcripts.
func writeDataset(t *testing.T, extra ...*fasta.Record) (transcripts, alignments string) {
	t.Helper()
	ds, err := datagen.Generate(datagen.DefaultConfig(2014))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	transcripts, alignments = filepath.Join(dir, "transcripts.fasta"), filepath.Join(dir, "alignments.out")
	if err := fasta.WriteFile(transcripts, append(ds.Transcripts, extra...)); err != nil {
		t.Fatal(err)
	}
	if err := blast.WriteTabularFile(alignments, ds.TruthHits); err != nil {
		t.Fatal(err)
	}
	return transcripts, alignments
}

// TestWorkflowModeMatchesSerial: for any chunk count, the workflow mode
// writes the bytes of the serial mode's final assembly.
func TestWorkflowModeMatchesSerial(t *testing.T) {
	transcripts, alignments := writeDataset(t)
	assembly := func(mode string, n int) []byte {
		workdir := t.TempDir()
		if err := run(io.Discard, io.Discard, transcripts, alignments, workdir, mode, n, 4, cap3.DefaultParams()); err != nil {
			t.Fatalf("%s n=%d: %v", mode, n, err)
		}
		out, err := os.ReadFile(filepath.Join(workdir, "final_assembly.fasta"))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := assembly("serial", 1)
	if !bytes.Contains(serial, []byte(" joined=")) {
		t.Fatal("serial assembly has no contig")
	}
	for _, n := range []int{1, 4, 13} {
		if workflow := assembly("workflow", n); !bytes.Equal(serial, workflow) {
			t.Errorf("n=%d: workflow wrote %d bytes that differ from serial's %d", n, len(workflow), len(serial))
		}
	}
}

// TestBothModesRefuseDuplicateTranscript: a transcript ID that appears
// twice fails the serial and the workflow mode alike.
func TestBothModesRefuseDuplicateTranscript(t *testing.T) {
	transcripts, alignments := writeDataset(t, &fasta.Record{ID: "tr_noise_005", Seq: []byte("ACGTACGT")})
	for _, mode := range []string{"serial", "workflow"} {
		if err := run(io.Discard, io.Discard, transcripts, alignments, t.TempDir(), mode, 4, 4, cap3.DefaultParams()); err == nil {
			t.Errorf("%s mode accepted a duplicated transcript ID", mode)
		}
	}
}

// TestWorkflowModeAttemptsAFailingTaskOnce: an in-process task is a
// deterministic function of its files, so a task that fails on a
// duplicated transcript ID is attempted once and reported once.
func TestWorkflowModeAttemptsAFailingTaskOnce(t *testing.T) {
	transcripts, alignments := writeDataset(t, &fasta.Record{ID: "tr_noise_005", Seq: []byte("ACGTACGT")})
	var stderr bytes.Buffer
	if err := run(io.Discard, &stderr, transcripts, alignments, t.TempDir(), "workflow", 4, 4, cap3.DefaultParams()); err == nil {
		t.Fatal("workflow mode accepted a duplicated transcript ID")
	}
	attempts := make(map[string]int)
	for _, line := range strings.Split(stderr.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "failed: "); ok {
			job, _, _ := strings.Cut(rest, ": ")
			attempts[job]++
		}
	}
	if len(attempts) == 0 {
		t.Fatalf("no failed attempt reported; stderr:\n%s", stderr.String())
	}
	for job, n := range attempts {
		if n != 1 {
			t.Errorf("job %s failed %d times, want one attempt", job, n)
		}
	}
}

// TestUnknownModeTouchesNothing: an unknown -mode is refused before the
// work directory is created or an input is copied into it.
func TestUnknownModeTouchesNothing(t *testing.T) {
	transcripts, alignments := writeDataset(t)
	workdir := filepath.Join(t.TempDir(), "work")
	if err := run(io.Discard, io.Discard, transcripts, alignments, workdir, "bogus", 4, 4, cap3.DefaultParams()); err == nil {
		t.Fatal("-mode bogus accepted")
	}
	if _, err := os.Stat(workdir); !os.IsNotExist(err) {
		t.Errorf("-mode bogus created %s (stat: %v)", workdir, err)
	}
}
