package seq

import "fmt"

// DNA alphabet helpers. Sequences are uppercase ACGT with N allowed as an
// ambiguity code.

var complement = [256]byte{}

func init() {
	for i := range complement {
		complement[i] = 'N'
	}
	complement['A'], complement['C'], complement['G'], complement['T'] = 'T', 'G', 'C', 'A'
	complement['a'], complement['c'], complement['g'], complement['t'] = 'T', 'G', 'C', 'A'
	complement['N'], complement['n'] = 'N', 'N'
}

// ReverseComplement returns the reverse complement of a DNA sequence as a
// new slice.
func ReverseComplement(s []byte) []byte {
	out := make([]byte, len(s))
	for i, c := range s {
		out[len(s)-1-i] = complement[c]
	}
	return out
}

// codonTable maps a 6-bit codon index (2 bits per base, A=0 C=1 G=2 T=3)
// to an amino acid; '*' is a stop.
var codonTable [64]byte

// unknown is the translation of a codon containing N.
const unknown = 'X'

func init() {
	// Standard genetic code, laid out by first/second/third base in
	// TCAG order per biology convention, then re-indexed to our ACGT
	// 2-bit encoding.
	code := map[string]byte{
		"TTT": 'F', "TTC": 'F', "TTA": 'L', "TTG": 'L',
		"CTT": 'L', "CTC": 'L', "CTA": 'L', "CTG": 'L',
		"ATT": 'I', "ATC": 'I', "ATA": 'I', "ATG": 'M',
		"GTT": 'V', "GTC": 'V', "GTA": 'V', "GTG": 'V',
		"TCT": 'S', "TCC": 'S', "TCA": 'S', "TCG": 'S',
		"CCT": 'P', "CCC": 'P', "CCA": 'P', "CCG": 'P',
		"ACT": 'T', "ACC": 'T', "ACA": 'T', "ACG": 'T',
		"GCT": 'A', "GCC": 'A', "GCA": 'A', "GCG": 'A',
		"TAT": 'Y', "TAC": 'Y', "TAA": '*', "TAG": '*',
		"CAT": 'H', "CAC": 'H', "CAA": 'Q', "CAG": 'Q',
		"AAT": 'N', "AAC": 'N', "AAA": 'K', "AAG": 'K',
		"GAT": 'D', "GAC": 'D', "GAA": 'E', "GAG": 'E',
		"TGT": 'C', "TGC": 'C', "TGA": '*', "TGG": 'W',
		"CGT": 'R', "CGC": 'R', "CGA": 'R', "CGG": 'R',
		"AGT": 'S', "AGC": 'S', "AGA": 'R', "AGG": 'R',
		"GGT": 'G', "GGC": 'G', "GGA": 'G', "GGG": 'G',
	}
	for codon, aa := range code {
		idx := 0
		for _, b := range []byte(codon) {
			idx = idx<<2 | int(baseCode(b))
		}
		codonTable[idx] = aa
	}
}

// baseCode returns the 2-bit code of a base, or 0xFF for non-ACGT.
func baseCode(b byte) byte {
	switch b {
	case 'A', 'a':
		return 0
	case 'C', 'c':
		return 1
	case 'G', 'g':
		return 2
	case 'T', 't':
		return 3
	default:
		return 0xFF
	}
}

// translateCodon translates a single 3-base codon; codons containing
// non-ACGT bases translate to unknown.
func translateCodon(c []byte) byte {
	if len(c) != 3 {
		return unknown
	}
	idx := 0
	for _, b := range c {
		bc := baseCode(b)
		if bc == 0xFF {
			return unknown
		}
		idx = idx<<2 | int(bc)
	}
	return codonTable[idx]
}

// Translate translates a DNA sequence in the given frame. Frames 0, 1, 2
// read the forward strand starting at that offset; frames 3, 4, 5 read the
// reverse complement at offsets 0, 1, 2 (BLASTX convention).
func Translate(dna []byte, frame int) ([]byte, error) {
	if frame < 0 || frame > 5 {
		return nil, fmt.Errorf("seq: frame %d outside [0,5]", frame)
	}
	s := dna
	if frame >= 3 {
		s = ReverseComplement(dna)
		frame -= 3
	}
	if frame >= len(s) {
		return nil, nil
	}
	s = s[frame:]
	out := make([]byte, 0, len(s)/3)
	for i := 0; i+3 <= len(s); i += 3 {
		out = append(out, translateCodon(s[i:i+3]))
	}
	return out, nil
}

// CodonsFor returns the codons encoding an amino acid (uppercase), used by
// the synthetic data generator to reverse-translate proteins. Stop ('*')
// returns the three stop codons.
func CodonsFor(aa byte) []string {
	var out []string
	for idx := 0; idx < 64; idx++ {
		if codonTable[idx] != aa {
			continue
		}
		b := []byte{
			"ACGT"[(idx>>4)&3],
			"ACGT"[(idx>>2)&3],
			"ACGT"[idx&3],
		}
		out = append(out, string(b))
	}
	return out
}

// Kmer is a 2-bit packed k-mer.
type Kmer uint64

// MaxK is the largest supported k-mer size (2 bits per base in 64 bits).
const MaxK = 31

// EachKmer calls fn for every valid k-mer position in s.
func EachKmer(s []byte, k int, fn func(pos int, km Kmer)) {
	if k <= 0 || k > MaxK || len(s) < k {
		return
	}
	// Incremental rolling update with reset on invalid bases.
	mask := Kmer(1)<<(2*uint(k)) - 1
	var v Kmer
	valid := 0
	for i, b := range s {
		c := baseCode(b)
		if c == 0xFF {
			valid = 0
			v = 0
			continue
		}
		v = (v<<2 | Kmer(c)) & mask
		valid++
		if valid >= k {
			fn(i-k+1, v)
		}
	}
}
