package fasta

import (
	"bytes"
	"testing"
)

// FuzzReader feeds arbitrary bytes to the FASTA parser. Malformed input
// must produce an error, never a panic; parsed records obey the format
// invariants; and — except when a sequence byte is '>' which re-wrapping
// could place at a line start — write∘read is a faithful round trip.
func FuzzReader(f *testing.F) {
	for _, s := range []string{
		"",
		">a\nACGT\n",
		">id desc here\nAC GT\nTT\n>second\nGGGG\n",
		">x\n>y\nAA\n",
		"no header\nACGT\n",
		">spaces  in \t desc\r\nAC\tGT\r\n",
		">wrap\n" + "ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT\n",
		">empty_seq\n\n>next\nTT\n",
		">\nACGT\n",
		">weird>\nAC>GT\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := readAll(bytes.NewReader(data))
		if err != nil {
			return // malformed input may error, but must not panic
		}
		gtInSeq := false
		for _, r := range recs {
			if r.ID == "" {
				t.Fatalf("parser accepted a record with an empty ID")
			}
			for _, c := range r.Seq {
				switch c {
				case '\n', '\r', ' ', '\t':
					t.Fatalf("whitespace byte %q survived in sequence of %q", c, r.ID)
				case '>':
					gtInSeq = true
				}
			}
		}
		if gtInSeq {
			// Wrapping may put '>' at a line start, where it reads as a
			// new header; skip the round trip for such inputs.
			return
		}
		var buf bytes.Buffer
		if err := WriteAll(&buf, recs); err != nil {
			t.Fatalf("writing parsed records: %v", err)
		}
		again, err := readAll(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reparsing written records: %v\n%q", err, buf.Bytes())
		}
		if len(again) != len(recs) {
			t.Fatalf("round trip changed record count: %d -> %d", len(recs), len(again))
		}
		for i := range recs {
			if again[i].ID != recs[i].ID || again[i].Desc != recs[i].Desc ||
				!bytes.Equal(again[i].Seq, recs[i].Seq) {
				t.Fatalf("round trip changed record %d: %+v -> %+v", i, recs[i], again[i])
			}
		}
	})
}
