package seq

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestReverseComplement(t *testing.T) {
	cases := []struct{ in, want string }{
		{"ACGT", "ACGT"},
		{"AAAA", "TTTT"},
		{"ACGTN", "NACGT"},
		{"", ""},
		{"GATTACA", "TGTAATC"},
	}
	for _, c := range cases {
		if got := string(ReverseComplement([]byte(c.in))); got != c.want {
			t.Errorf("RC(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestReverseComplementInvolution(t *testing.T) {
	f := func(raw []byte) bool {
		s := make([]byte, len(raw))
		for i, b := range raw {
			s[i] = "ACGTN"[int(b)%5]
		}
		return bytes.Equal(ReverseComplement(ReverseComplement(s)), s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTranslateKnownGene(t *testing.T) {
	// ATG AAA TAA → M K *
	got, err := Translate([]byte("ATGAAATAA"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "MK*" {
		t.Errorf("translation = %q, want MK*", got)
	}
}

func TestTranslateFrames(t *testing.T) {
	dna := []byte("AATGGCC")
	f0, _ := Translate(dna, 0) // AAT GGC → N G
	f1, _ := Translate(dna, 1) // ATG GCC → M A
	f2, _ := Translate(dna, 2) // TGG CC → W
	if string(f0) != "NG" || string(f1) != "MA" || string(f2) != "W" {
		t.Errorf("frames = %q %q %q", f0, f1, f2)
	}
	// Reverse frames translate the reverse complement (GGCCATT).
	f3, _ := Translate(dna, 3) // GGC CAT → G H
	if string(f3) != "GH" {
		t.Errorf("frame 3 = %q, want GH", f3)
	}
}

func TestTranslateInvalidFrame(t *testing.T) {
	if _, err := Translate([]byte("ACGT"), 6); err == nil {
		t.Error("frame 6 accepted")
	}
	if _, err := Translate([]byte("ACGT"), -1); err == nil {
		t.Error("frame -1 accepted")
	}
}

func TestTranslateNBecomesX(t *testing.T) {
	got, _ := Translate([]byte("ATGNNNAAA"), 0)
	if string(got) != "MXK" {
		t.Errorf("translation = %q, want MXK", got)
	}
}

func TestTranslateShortInput(t *testing.T) {
	got, err := Translate([]byte("AC"), 0)
	if err != nil || len(got) != 0 {
		t.Errorf("short input: %q, %v", got, err)
	}
	got, err = Translate([]byte("AC"), 2)
	if err != nil || len(got) != 0 {
		t.Errorf("frame beyond length: %q, %v", got, err)
	}
}

// TestSixFrames: Translate reads all six frames of one sequence, the
// forward ones at (len-frame)/3 codons.
func TestSixFrames(t *testing.T) {
	dna := []byte("ATGAAATTTGGGCCC")
	for f := 0; f < 6; f++ {
		frame, err := Translate(dna, f)
		if err != nil {
			t.Fatal(err)
		}
		if f == 0 && string(frame) != "MKFGP" {
			t.Errorf("frame 0 = %q", frame)
		}
		if f < 3 && len(frame) != (15-f)/3 {
			t.Errorf("frame %d length = %d", f, len(frame))
		}
	}
}

func TestCodonTableCompleteness(t *testing.T) {
	// All 64 codons must map to one of the 20 amino acids or stop.
	counts := map[byte]int{}
	for _, b1 := range "ACGT" {
		for _, b2 := range "ACGT" {
			for _, b3 := range "ACGT" {
				aa := translateCodon([]byte{byte(b1), byte(b2), byte(b3)})
				if !strings.ContainsRune("ACDEFGHIKLMNPQRSTVWY*", rune(aa)) {
					t.Fatalf("codon %c%c%c → %q", b1, b2, b3, aa)
				}
				counts[aa]++
			}
		}
	}
	if counts['*'] != 3 {
		t.Errorf("stop codons = %d, want 3", counts['*'])
	}
	if counts['M'] != 1 || counts['W'] != 1 {
		t.Errorf("Met/Trp codon counts = %d/%d, want 1/1", counts['M'], counts['W'])
	}
	if counts['L'] != 6 || counts['R'] != 6 || counts['S'] != 6 {
		t.Errorf("Leu/Arg/Ser = %d/%d/%d, want 6 each", counts['L'], counts['R'], counts['S'])
	}
}

func TestCodonsForRoundTrip(t *testing.T) {
	for _, aa := range []byte("ACDEFGHIKLMNPQRSTVWY*") {
		codons := CodonsFor(aa)
		if len(codons) == 0 {
			t.Fatalf("no codons for %c", aa)
		}
		for _, c := range codons {
			if got := translateCodon([]byte(c)); got != aa {
				t.Errorf("codon %s → %c, want %c", c, got, aa)
			}
		}
	}
	if CodonsFor('Z') != nil {
		t.Error("codons returned for invalid amino acid")
	}
}

func TestKmerAt(t *testing.T) {
	// ACGT = 00 01 10 11 = 0x1B.
	v, ok := KmerAt([]byte("ACGT"), 0, 4)
	if !ok || v != 0x1B {
		t.Errorf("KmerAt = %x, %v", v, ok)
	}
	if _, ok := KmerAt([]byte("ACNT"), 0, 4); ok {
		t.Error("k-mer with N accepted")
	}
	if _, ok := KmerAt([]byte("ACGT"), 2, 4); ok {
		t.Error("overrunning k-mer accepted")
	}
	if _, ok := KmerAt([]byte("ACGT"), 0, 32); ok {
		t.Error("k > MaxK accepted")
	}
}

func TestEachKmerMatchesKmerAt(t *testing.T) {
	s := []byte("ACGTACGTNNGGGTTTACGT")
	const k = 5
	var positions []int
	EachKmer(s, k, func(pos int, km Kmer) {
		positions = append(positions, pos)
		want, ok := KmerAt(s, pos, k)
		if !ok || km != want {
			t.Errorf("pos %d: rolling %x vs direct %x (ok=%v)", pos, km, want, ok)
		}
	})
	// Windows overlapping the Ns must be skipped.
	for _, p := range positions {
		if p+k > len(s) {
			t.Errorf("position %d overruns", p)
		}
		for i := p; i < p+k; i++ {
			if s[i] == 'N' {
				t.Errorf("window at %d includes N", p)
			}
		}
	}
	if len(positions) == 0 {
		t.Fatal("no k-mers emitted")
	}
}

func TestEachKmerDegenerate(t *testing.T) {
	calls := 0
	EachKmer([]byte("AC"), 5, func(int, Kmer) { calls++ })
	EachKmer(nil, 3, func(int, Kmer) { calls++ })
	EachKmer([]byte("ACGT"), 0, func(int, Kmer) { calls++ })
	if calls != 0 {
		t.Errorf("degenerate inputs produced %d k-mers", calls)
	}
}

// Property: translating a reverse-complemented sequence in frame 0 equals
// translating the original in frame 3.
func TestPropertyFrameSymmetry(t *testing.T) {
	f := func(raw []byte) bool {
		s := make([]byte, len(raw))
		for i, b := range raw {
			s[i] = "ACGT"[int(b)%4]
		}
		a, err1 := Translate(ReverseComplement(s), 0)
		b, err2 := Translate(s, 3)
		if err1 != nil || err2 != nil {
			return false
		}
		return bytes.Equal(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// KmerAt packs the k bases starting at position i; ok is false if the
// window contains a non-ACGT base or overruns the sequence. It is the
// direct computation EachKmer's rolling update is checked against.
func KmerAt(s []byte, i, k int) (Kmer, bool) {
	if k <= 0 || k > MaxK || i < 0 || i+k > len(s) {
		return 0, false
	}
	var v Kmer
	for _, b := range s[i : i+k] {
		c := baseCode(b)
		if c == 0xFF {
			return 0, false
		}
		v = v<<2 | Kmer(c)
	}
	return v, true
}
