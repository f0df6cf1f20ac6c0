package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pegflow/internal/bio/blast"
	"pegflow/internal/bio/cap3"
	"pegflow/internal/bio/datagen"
	"pegflow/internal/bio/fasta"
)

// writeDataset writes the two inputs the command reads, as datagen does.
func writeDataset(t *testing.T) (transcripts, alignments string) {
	t.Helper()
	ds, err := datagen.Generate(datagen.DefaultConfig(2014))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	transcripts, alignments = filepath.Join(dir, "transcripts.fasta"), filepath.Join(dir, "alignments.out")
	if err := fasta.WriteFile(transcripts, ds.Transcripts); err != nil {
		t.Fatal(err)
	}
	if err := blast.WriteTabularFile(alignments, ds.TruthHits); err != nil {
		t.Fatal(err)
	}
	return transcripts, alignments
}

// TestWorkflowModeMatchesSerial: the workflow-decomposed run writes the
// same final assembly as the serial run, record for record. The modes
// describe a contig differently in its header (serial: read count and
// protein; workflow: the joined transcript IDs), so IDs and sequences are
// compared, not bytes.
func TestWorkflowModeMatchesSerial(t *testing.T) {
	transcripts, alignments := writeDataset(t)
	var assemblies [][]*fasta.Record
	for _, mode := range []string{"serial", "workflow"} {
		workdir := t.TempDir()
		if err := run(transcripts, alignments, workdir, mode, 4, 4, cap3.DefaultParams()); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		recs, err := fasta.ReadFile(filepath.Join(workdir, "final_assembly.fasta"))
		if err != nil {
			t.Fatal(err)
		}
		assemblies = append(assemblies, recs)
	}
	serial, workflow := assemblies[0], assemblies[1]
	if len(serial) == 0 || len(serial) != len(workflow) {
		t.Fatalf("serial wrote %d records, workflow %d", len(serial), len(workflow))
	}
	for i, s := range serial {
		if w := workflow[i]; s.ID != w.ID || !bytes.Equal(s.Seq, w.Seq) {
			t.Errorf("record %d: serial %s, workflow %s", i, s.ID, w.ID)
		}
	}
}

// TestUnknownModeTouchesNothing: an unknown -mode is refused before the
// work directory is created or an input is copied into it.
func TestUnknownModeTouchesNothing(t *testing.T) {
	transcripts, alignments := writeDataset(t)
	workdir := filepath.Join(t.TempDir(), "work")
	if err := run(transcripts, alignments, workdir, "bogus", 4, 4, cap3.DefaultParams()); err == nil {
		t.Fatal("-mode bogus accepted")
	}
	if _, err := os.Stat(workdir); !os.IsNotExist(err) {
		t.Errorf("-mode bogus created %s (stat: %v)", workdir, err)
	}
}
