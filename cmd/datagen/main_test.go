package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunWritesDataset: both alignment sources write the three files the
// blast2cap3 command reads.
func TestRunWritesDataset(t *testing.T) {
	for _, extra := range [][]string{nil, {"-blast"}} {
		out := t.TempDir()
		if err := run(append([]string{"-out", out, "-proteins", "4", "-noise", "2"}, extra...)); err != nil {
			t.Fatalf("%v: %v", extra, err)
		}
		for _, name := range []string{"transcripts.fasta", "proteins.fasta", "alignments.out"} {
			if info, err := os.Stat(filepath.Join(out, name)); err != nil || info.Size() == 0 {
				t.Errorf("%v: %s missing or empty: %v", extra, name, err)
			}
		}
	}
}

// TestRunRefusesNonPositiveProteins: with -zipf set, a negative -proteins
// once reached the cluster-size profile first and panicked there.
func TestRunRefusesNonPositiveProteins(t *testing.T) {
	for _, n := range []string{"0", "-1"} {
		out := filepath.Join(t.TempDir(), "data")
		err := run([]string{"-out", out, "-zipf", "1", "-proteins", n})
		if err == nil || !strings.Contains(err.Error(), "non-positive protein count") {
			t.Errorf("-proteins %s: err = %v, want the non-positive count error", n, err)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("-proteins %s: output directory created before the refusal", n)
		}
	}
}
