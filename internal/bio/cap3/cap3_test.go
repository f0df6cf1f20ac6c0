package cap3

import (
	"bytes"
	"fmt"
	"testing"

	"pegflow/internal/bio/fasta"
	"pegflow/internal/bio/seq"
)

// makeRef builds a deterministic pseudo-random reference sequence.
func makeRef(n int, seed uint32) []byte {
	out := make([]byte, n)
	s := seed | 1
	for i := range out {
		s = s*1664525 + 1013904223
		out[i] = "ACGT"[s>>30]
	}
	return out
}

// fragment cuts the reference into overlapping windows.
func fragment(ref []byte, win, step int) []*fasta.Record {
	var out []*fasta.Record
	i := 0
	for start := 0; start < len(ref); start += step {
		end := start + win
		if end > len(ref) {
			end = len(ref)
		}
		out = append(out, &fasta.Record{
			ID:  fmt.Sprintf("read%03d", i),
			Seq: append([]byte(nil), ref[start:end]...),
		})
		i++
		if end == len(ref) {
			break
		}
	}
	return out
}

func TestAssembleReconstructsReference(t *testing.T) {
	ref := makeRef(600, 7)
	reads := fragment(ref, 200, 120) // 80-base overlaps
	res, err := Assemble(reads, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Contigs) != 1 {
		t.Fatalf("contigs = %d, want 1 (singlets: %d)", len(res.Contigs), len(res.Singlets))
	}
	if len(res.Singlets) != 0 {
		t.Errorf("singlets = %d, want 0", len(res.Singlets))
	}
	c := res.Contigs[0]
	if !bytes.Equal(c.Seq, ref) {
		t.Errorf("consensus length %d vs reference %d; equal=%v",
			len(c.Seq), len(ref), bytes.Equal(c.Seq, ref))
	}
	if len(c.Reads) != len(reads) {
		t.Errorf("contig contains %d reads, want %d", len(c.Reads), len(reads))
	}
}

func TestAssembleHandlesReverseComplementReads(t *testing.T) {
	ref := makeRef(500, 21)
	reads := fragment(ref, 200, 120)
	// Flip every other read.
	for i, r := range reads {
		if i%2 == 1 {
			r.Seq = seq.ReverseComplement(r.Seq)
		}
	}
	res, err := Assemble(reads, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Contigs) != 1 {
		t.Fatalf("contigs = %d, want 1", len(res.Contigs))
	}
	got := res.Contigs[0].Seq
	if !bytes.Equal(got, ref) && !bytes.Equal(got, seq.ReverseComplement(ref)) {
		t.Errorf("consensus does not match reference in either orientation (len %d vs %d)",
			len(got), len(ref))
	}
	// Orientation flags must be recorded.
	rev := 0
	for _, p := range res.Contigs[0].Reads {
		if p.Reverse {
			rev++
		}
	}
	if rev == 0 {
		t.Error("no read marked reverse despite flipped inputs")
	}
}

func TestAssembleToleratesMutations(t *testing.T) {
	ref := makeRef(400, 33)
	reads := fragment(ref, 160, 100) // 60-base overlaps
	// Introduce ~3% mismatches into each read (below the 10% identity
	// budget).
	s := uint32(99)
	for _, r := range reads {
		for i := range r.Seq {
			s = s*1664525 + 1013904223
			if s%33 == 0 {
				r.Seq[i] = "ACGT"[(s>>30+1)%4]
			}
		}
	}
	res, err := Assemble(reads, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Contigs) != 1 {
		t.Fatalf("contigs = %d, want 1 (mutation rate within tolerance)", len(res.Contigs))
	}
}

func TestAssembleKeepsDistinctSequencesApart(t *testing.T) {
	a := makeRef(300, 5)
	b := makeRef(300, 1234)
	res, err := Assemble([]*fasta.Record{
		{ID: "a", Seq: a},
		{ID: "b", Seq: b},
	}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Contigs) != 0 || len(res.Singlets) != 2 {
		t.Errorf("unrelated sequences merged: contigs=%d singlets=%d",
			len(res.Contigs), len(res.Singlets))
	}
}

func TestAssembleRespectsMinOverlap(t *testing.T) {
	ref := makeRef(300, 11)
	// Two reads overlapping by only 25 bases (< default 40).
	reads := []*fasta.Record{
		{ID: "l", Seq: append([]byte(nil), ref[:160]...)},
		{ID: "r", Seq: append([]byte(nil), ref[135:]...)},
	}
	res, err := Assemble(reads, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Contigs) != 0 {
		t.Errorf("merged despite %d-base overlap < MinOverlap", 25)
	}
	// Lowering the threshold merges them.
	p := DefaultParams()
	p.MinOverlap = 20
	res2, err := Assemble(reads, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Contigs) != 1 {
		t.Errorf("did not merge with MinOverlap=20")
	}
	if !bytes.Equal(res2.Contigs[0].Seq, ref) {
		t.Errorf("reconstruction wrong: %d vs %d bases", len(res2.Contigs[0].Seq), len(ref))
	}
}

func TestAssembleRespectsMinIdentity(t *testing.T) {
	ref := makeRef(300, 17)
	left := append([]byte(nil), ref[:180]...)
	right := append([]byte(nil), ref[120:]...)
	// Corrupt the overlap region of the right read to ~75% identity.
	s := uint32(3)
	for i := 0; i < 60; i += 4 {
		s = s*1664525 + 1013904223
		right[i] = "ACGT"[(s>>30+2)%4]
	}
	res, err := Assemble([]*fasta.Record{{ID: "l", Seq: left}, {ID: "r", Seq: right}}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Contigs) != 0 {
		t.Errorf("merged despite corrupted overlap (identity < 0.90)")
	}
}

func TestAssembleContainment(t *testing.T) {
	ref := makeRef(400, 77)
	res, err := Assemble([]*fasta.Record{
		{ID: "whole", Seq: ref},
		{ID: "inner", Seq: append([]byte(nil), ref[100:300]...)},
	}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Contigs) != 1 {
		t.Fatalf("containment not merged: %d contigs, %d singlets", len(res.Contigs), len(res.Singlets))
	}
	if !bytes.Equal(res.Contigs[0].Seq, ref) {
		t.Errorf("containment changed consensus: %d vs %d bases", len(res.Contigs[0].Seq), len(ref))
	}
}

func TestAssembleRepairsN(t *testing.T) {
	ref := makeRef(300, 55)
	left := append([]byte(nil), ref[:180]...)
	right := append([]byte(nil), ref[120:]...)
	// Left read has two unknown bases inside the overlap region.
	left[150], left[151] = 'N', 'N'
	res, err := Assemble([]*fasta.Record{{ID: "l", Seq: left}, {ID: "r", Seq: right}}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Contigs) != 1 {
		t.Fatalf("not merged")
	}
	if bytes.ContainsRune(res.Contigs[0].Seq, 'N') {
		t.Error("N bases not repaired from partner read")
	}
}

func TestAssembleValidation(t *testing.T) {
	ok := []*fasta.Record{{ID: "a", Seq: []byte("ACGT")}}
	if _, err := Assemble(append(ok, &fasta.Record{ID: "a", Seq: []byte("ACGT")}), DefaultParams()); err == nil {
		t.Error("duplicate IDs accepted")
	}
	if _, err := Assemble([]*fasta.Record{{ID: "", Seq: []byte("ACGT")}}, DefaultParams()); err == nil {
		t.Error("empty ID accepted")
	}
	if _, err := Assemble([]*fasta.Record{{ID: "a"}}, DefaultParams()); err == nil {
		t.Error("empty sequence accepted")
	}
	p := DefaultParams()
	p.MinIdentity = 1.5
	if _, err := Assemble(ok, p); err == nil {
		t.Error("identity > 1 accepted")
	}
	p = DefaultParams()
	p.KmerSize = 0
	if _, err := Assemble(ok, p); err == nil {
		t.Error("k = 0 accepted")
	}
}

func TestAssembleEmptyAndSingle(t *testing.T) {
	res, err := Assemble(nil, DefaultParams())
	if err != nil || len(res.Contigs) != 0 || len(res.Singlets) != 0 {
		t.Errorf("empty input: %+v, %v", res, err)
	}
	res, err = Assemble([]*fasta.Record{{ID: "only", Seq: makeRef(100, 1)}}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Singlets) != 1 || res.Singlets[0].ID != "only" {
		t.Errorf("single read: %+v", res)
	}
}

func TestAssembleTwoSeparateContigs(t *testing.T) {
	refA := makeRef(400, 9)
	refB := makeRef(400, 1001)
	reads := append(fragment(refA, 180, 110), nil...)
	for i, r := range fragment(refB, 180, 110) {
		r.ID = fmt.Sprintf("b%03d", i)
		reads = append(reads, r)
	}
	res, err := Assemble(reads, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Contigs) != 2 {
		t.Fatalf("contigs = %d, want 2", len(res.Contigs))
	}
	total := 0
	for _, c := range res.Contigs {
		total += len(c.Reads)
	}
	if total != len(reads) {
		t.Errorf("reads in contigs = %d, want %d", total, len(reads))
	}
}
