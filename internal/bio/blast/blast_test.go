package blast

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"pegflow/internal/bio/seq"
)

// reverseTranslate builds a DNA sequence coding for the given protein
// using the first codon of each residue.
func reverseTranslate(t *testing.T, prot string) []byte {
	t.Helper()
	var dna []byte
	for i := 0; i < len(prot); i++ {
		codons := seq.CodonsFor(prot[i])
		if len(codons) == 0 {
			t.Fatalf("no codon for %c", prot[i])
		}
		dna = append(dna, codons[0]...)
	}
	return dna
}

const testProtein = "MKVLAWQHGERTYIPDNFCS"

func testDB(t *testing.T) *DB {
	t.Helper()
	db, err := NewDB([]Protein{
		{ID: "prot1", Seq: []byte(testProtein)},
		{ID: "prot2", Seq: []byte("WWWWWPPPPPGGGGGHHHHH")},
		{ID: "prot3", Seq: []byte(testProtein + "AAAAKKKK")},
	}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestSearchFindsCodingQuery(t *testing.T) {
	db := testDB(t)
	dna := reverseTranslate(t, testProtein)
	hits, err := db.Search("tr1", dna)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("no hits for perfectly coding query")
	}
	// prot1 or prot3 (superstring) must be the top hit.
	top := hits[0]
	if top.SubjectID != "prot1" && top.SubjectID != "prot3" {
		t.Errorf("top hit = %s", top.SubjectID)
	}
	if top.PercentIdentity < 99 {
		t.Errorf("identity = %.1f, want ≈100", top.PercentIdentity)
	}
	if top.Length < len(testProtein) {
		t.Errorf("alignment length = %d, want ≥ %d", top.Length, len(testProtein))
	}
	if top.EValue > 1e-5 {
		t.Errorf("evalue = %g", top.EValue)
	}
	found2 := false
	for _, h := range hits {
		if h.SubjectID == "prot2" {
			found2 = true
		}
	}
	if found2 {
		t.Error("dissimilar protein reported as hit")
	}
}

func TestSearchReverseStrand(t *testing.T) {
	db := testDB(t)
	dna := reverseTranslate(t, testProtein)
	rc := seq.ReverseComplement(dna)
	hits, err := db.Search("tr_rc", rc)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("no hits on reverse strand")
	}
	top := hits[0]
	if top.PercentIdentity < 99 {
		t.Errorf("identity = %.1f", top.PercentIdentity)
	}
	// BLASTX convention: reverse-frame hits have QStart > QEnd.
	if top.QStart <= top.QEnd {
		t.Errorf("reverse hit coords = %d..%d, want QStart > QEnd", top.QStart, top.QEnd)
	}
}

func TestSearchForwardCoords(t *testing.T) {
	db := testDB(t)
	// Prepend 4 bases so the coding region starts at nucleotide 5
	// (frame 1).
	dna := append([]byte("GGGG"), reverseTranslate(t, testProtein)...)
	hits, err := db.Search("tr_off", dna)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	top := hits[0]
	if top.QStart > top.QEnd {
		t.Fatalf("forward hit has reversed coords: %d..%d", top.QStart, top.QEnd)
	}
	if top.QStart < 1 || top.QEnd > len(dna) {
		t.Errorf("coords out of range: %d..%d (len %d)", top.QStart, top.QEnd, len(dna))
	}
	// The aligned region must cover most of the coding part.
	if span := top.QEnd - top.QStart + 1; span < 3*(len(testProtein)-2) {
		t.Errorf("span = %d nt", span)
	}
}

func TestSearchNoHitForRandomDNA(t *testing.T) {
	db := testDB(t)
	// Low-complexity non-coding junk.
	dna := bytes.Repeat([]byte("AT"), 60)
	hits, err := db.Search("junk", dna)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 {
		t.Errorf("junk query produced %d hits", len(hits))
	}
}

func TestSearchMutatedQueryStillFound(t *testing.T) {
	db := testDB(t)
	dna := reverseTranslate(t, testProtein)
	// Mutate a codon's third positions (often synonymous) and one
	// residue outright.
	dna[5] = 'A'
	dna[29] = 'C'
	hits, err := db.Search("tr_mut", dna)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("mutated query lost")
	}
	if hits[0].PercentIdentity < 80 {
		t.Errorf("identity = %.1f", hits[0].PercentIdentity)
	}
}

func TestNewDBValidation(t *testing.T) {
	if _, err := NewDB([]Protein{{ID: "p", Seq: []byte("MK")}}, Params{WordSize: 1}); err == nil {
		t.Error("word size 1 accepted")
	}
	if _, err := NewDB([]Protein{{Seq: []byte("MK")}}, DefaultParams()); err == nil {
		t.Error("empty protein ID accepted")
	}
	db, err := NewDB(nil, DefaultParams())
	if err != nil || len(db.proteins) != 0 || db.residues != 0 {
		t.Errorf("empty DB: %v", err)
	}
}

func TestBitScoreEValueMonotone(t *testing.T) {
	if bitScore(100) <= bitScore(50) {
		t.Error("bit score not monotone")
	}
	if eValue(100, 1000, 1e6) >= eValue(50, 1000, 1e6) {
		t.Error("evalue not decreasing in score")
	}
	// Doubling the search space doubles E.
	a := eValue(60, 1000, 1e6)
	b := eValue(60, 2000, 1e6)
	if math.Abs(b/a-2) > 1e-9 {
		t.Errorf("evalue scaling = %v", b/a)
	}
}

func TestTabularRoundTrip(t *testing.T) {
	hits := []Hit{
		{QueryID: "tr1", SubjectID: "prot1", PercentIdentity: 98.25, Length: 120,
			Mismatches: 2, GapOpens: 1, QStart: 3, QEnd: 362, SStart: 1, SEnd: 120,
			EValue: 1.5e-30, BitScore: 250.3},
		{QueryID: "tr2", SubjectID: "prot9", PercentIdentity: 77.5, Length: 40,
			QStart: 120, QEnd: 1, SStart: 5, SEnd: 44, EValue: 2e-8, BitScore: 61.2},
	}
	var buf bytes.Buffer
	if err := writeTabular(&buf, hits); err != nil {
		t.Fatal(err)
	}
	got, err := parseTabular(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("records = %d", len(got))
	}
	if got[0].QueryID != "tr1" || got[0].SubjectID != "prot1" ||
		got[0].Length != 120 || got[0].Mismatches != 2 || got[0].GapOpens != 1 ||
		got[0].QStart != 3 || got[0].QEnd != 362 {
		t.Errorf("record 0 = %+v", got[0])
	}
	if math.Abs(got[0].PercentIdentity-98.25) > 1e-9 {
		t.Errorf("pident = %v", got[0].PercentIdentity)
	}
	if math.Abs(got[0].EValue-1.5e-30)/1.5e-30 > 0.01 {
		t.Errorf("evalue = %v", got[0].EValue)
	}
	if got[1].QStart != 120 || got[1].QEnd != 1 {
		t.Errorf("reverse coords not preserved: %+v", got[1])
	}
}

func TestParseTabularSkipsCommentsAndBlank(t *testing.T) {
	in := "# comment\n\ntr1\tp1\t100.00\t10\t0\t0\t1\t30\t1\t10\t1e-10\t50.0\n"
	hits, err := parseTabular(strings.NewReader(in))
	if err != nil || len(hits) != 1 {
		t.Fatalf("hits = %v, err = %v", hits, err)
	}
}

func TestParseTabularErrors(t *testing.T) {
	bad := []string{
		"tr1\tp1\t100.0\n",
		"tr1\tp1\tabc\t10\t0\t0\t1\t30\t1\t10\t1e-10\t50.0\n",
		"\tp1\t100.0\t10\t0\t0\t1\t30\t1\t10\t1e-10\t50.0\n",
		"tr1\tp1\t100.0\t10\t0\t0\tx\t30\t1\t10\t1e-10\t50.0\n",
		"tr1\tp1\t100.0\t10\t0\t0\t1\t30\t1\t10\tnope\t50.0\n",
	}
	for i, in := range bad {
		if _, err := parseTabular(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: bad line accepted", i)
		}
	}
}

func TestNucCoords(t *testing.T) {
	// Frame 0, protein positions [0,2) → nucleotides 1..6.
	s, e := nucCoords(0, 30, 0, 2)
	if s != 1 || e != 6 {
		t.Errorf("frame0 = %d..%d", s, e)
	}
	// Frame 1 shifts by one nucleotide.
	s, e = nucCoords(1, 30, 0, 2)
	if s != 2 || e != 7 {
		t.Errorf("frame1 = %d..%d", s, e)
	}
	// Reverse frame: coordinates descend.
	s, e = nucCoords(3, 30, 0, 2)
	if s != 30 || e != 25 {
		t.Errorf("frame3 = %d..%d", s, e)
	}
}
