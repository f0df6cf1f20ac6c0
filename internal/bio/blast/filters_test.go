package blast

import (
	"fmt"
	"testing"

	"pegflow/internal/bio/seq"
)

// bigDB builds a database of many similar proteins so one query hits all.
func bigDB(t *testing.T, n int) *DB {
	t.Helper()
	var prots []Protein
	base := []byte(testProtein + testProtein)
	for i := 0; i < n; i++ {
		p := append([]byte(nil), base...)
		// Vary one residue so entries are distinct but all similar.
		p[len(p)-1] = "ACDEFGHIKLMNPQRSTVWY"[i%20]
		prots = append(prots, Protein{ID: fmt.Sprintf("p%03d", i), Seq: p})
	}
	params := DefaultParams()
	params.MaxHitsPerQuery = 5
	db, err := NewDB(prots, params)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestMaxHitsPerQueryCap(t *testing.T) {
	db := bigDB(t, 30)
	dna := reverseTranslate(t, testProtein+testProtein)
	hits, err := db.Search("q", dna)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 5 {
		t.Fatalf("hits = %d, want capped at 5", len(hits))
	}
	// The cap keeps the best-scoring hits.
	for i := 1; i < len(hits); i++ {
		if hits[i].BitScore > hits[i-1].BitScore {
			t.Errorf("hits not sorted by bit score: %v then %v",
				hits[i-1].BitScore, hits[i].BitScore)
		}
	}
}

func TestMaxEValueFilter(t *testing.T) {
	params := DefaultParams()
	params.MaxEValue = 1e-300 // virtually nothing passes
	db, err := NewDB([]Protein{{ID: "p", Seq: []byte(testProtein)}}, params)
	if err != nil {
		t.Fatal(err)
	}
	dna := reverseTranslate(t, testProtein)
	hits, err := db.Search("q", dna)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 {
		t.Errorf("hits above the e-value bar: %d", len(hits))
	}
}

func TestSearchEmptyQueryAndShort(t *testing.T) {
	db := testDB(t)
	hits, err := db.Search("empty", nil)
	if err != nil || len(hits) != 0 {
		t.Errorf("empty query: %v, %v", hits, err)
	}
	hits, err = db.Search("short", []byte("ACG"))
	if err != nil || len(hits) != 0 {
		t.Errorf("3-base query: %v, %v", hits, err)
	}
}

func TestSearchDeterministicOrder(t *testing.T) {
	db := bigDB(t, 10)
	dna := reverseTranslate(t, testProtein+testProtein)
	a, err := db.Search("q", dna)
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.Search("q", dna)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("non-deterministic hit count")
	}
	for i := range a {
		if a[i].SubjectID != b[i].SubjectID {
			t.Fatal("non-deterministic hit order")
		}
	}
}

func TestPackWordRejectsAmbiguous(t *testing.T) {
	if _, ok := packWord([]byte("MKX")); ok {
		t.Error("word containing X indexed")
	}
	if _, ok := packWord([]byte("MK*")); ok {
		t.Error("word containing stop indexed")
	}
	if v, ok := packWord([]byte("MKV")); !ok || v == 0 {
		t.Error("valid word rejected")
	}
}

func TestQueryWithNs(t *testing.T) {
	db := testDB(t)
	dna := reverseTranslate(t, testProtein)
	// Sprinkle Ns: translation yields X residues; search must not
	// crash and should still find the protein via clean stretches.
	dna[3] = 'N'
	hits, err := db.Search("with_ns", dna)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Error("query with one N lost entirely")
	}
}

func TestHitSpansMostOfProtein(t *testing.T) {
	db := testDB(t)
	dna := reverseTranslate(t, testProtein)
	hits, err := db.Search("q", dna)
	if err != nil || len(hits) == 0 {
		t.Fatalf("hits=%v err=%v", hits, err)
	}
	top := hits[0]
	if top.SEnd-top.SStart+1 < len(testProtein)-2 {
		t.Errorf("subject span %d..%d too short", top.SStart, top.SEnd)
	}
	// Sanity on translation consistency: aligning the hit frame
	// reproduces ≥ the protein's residues.
	frame0, err := seq.Translate(dna, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(frame0) != testProtein {
		t.Errorf("frame 0 = %q", frame0)
	}
}
