package fasta

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func TestReadBasic(t *testing.T) {
	in := ">tr1 wheat transcript\nACGTACGT\nACGT\n>tr2\nTTTT\n"
	recs, err := readAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[0].ID != "tr1" || recs[0].Desc != "wheat transcript" {
		t.Errorf("header = %q/%q", recs[0].ID, recs[0].Desc)
	}
	if string(recs[0].Seq) != "ACGTACGTACGT" {
		t.Errorf("seq = %q (multi-line not joined)", recs[0].Seq)
	}
	if recs[1].ID != "tr2" || recs[1].Desc != "" || string(recs[1].Seq) != "TTTT" {
		t.Errorf("second record = %+v", recs[1])
	}
}

func TestReadSkipsBlankAndCRLF(t *testing.T) {
	in := "\n\n>a desc here\r\nACGT\r\n\r\nAC GT\n>b\nGG\n"
	recs, err := readAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	if string(recs[0].Seq) != "ACGTACGT" {
		t.Errorf("seq with CRLF/space = %q", recs[0].Seq)
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := readAll(strings.NewReader("ACGT\n")); err == nil {
		t.Error("sequence before header accepted")
	}
	if _, err := readAll(strings.NewReader("> \nACGT\n")); err == nil {
		t.Error("empty identifier accepted")
	}
}

func TestReadEmptyInput(t *testing.T) {
	recs, err := readAll(strings.NewReader(""))
	if err != nil || len(recs) != 0 {
		t.Errorf("empty input: %v, %v", recs, err)
	}
}

func TestReaderNextEOFTerminal(t *testing.T) {
	r := newReader(strings.NewReader(">a\nAC\n"))
	if _, err := r.next(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := r.next(); err != io.EOF {
			t.Fatalf("Next after end = %v, want io.EOF", err)
		}
	}
}

func TestWriteWrapsLines(t *testing.T) {
	var buf bytes.Buffer
	w := newWriter(&buf)
	w.Width = 10
	rec := &Record{ID: "x", Seq: []byte("AAAAAAAAAACCCCCCCCCCGGG")}
	if err := w.write(rec); err != nil {
		t.Fatal(err)
	}
	want := ">x\nAAAAAAAAAA\nCCCCCCCCCC\nGGG\n"
	if buf.String() != want {
		t.Errorf("got %q, want %q", buf.String(), want)
	}
}

func TestWriteEmptySeq(t *testing.T) {
	var buf bytes.Buffer
	if err := newWriter(&buf).write(&Record{ID: "e"}); err != nil {
		t.Fatal(err)
	}
	if buf.String() != ">e\n" {
		t.Errorf("got %q", buf.String())
	}
	if err := newWriter(&buf).write(&Record{}); err == nil {
		t.Error("empty ID accepted")
	}
}

func TestRoundTripFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.fasta")
	recs := []*Record{
		{ID: "tr1", Desc: "first", Seq: []byte("ACGTACGTNNACGT")},
		{ID: "tr2", Seq: []byte(strings.Repeat("ACGT", 100))},
	}
	if err := WriteFile(path, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("records = %d", len(got))
	}
	for i := range recs {
		if got[i].ID != recs[i].ID || got[i].Desc != recs[i].Desc ||
			!bytes.Equal(got[i].Seq, recs[i].Seq) {
			t.Errorf("record %d not preserved: %+v", i, got[i])
		}
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope.fasta")); err == nil {
		t.Error("missing file read succeeded")
	}
}

func TestHeaderAndLen(t *testing.T) {
	r := &Record{ID: "a", Desc: "b c", Seq: []byte("ACGT")}
	if r.header() != "a b c" || len(r.Seq) != 4 {
		t.Errorf("Header=%q", r.header())
	}
	if (&Record{ID: "a"}).header() != "a" {
		t.Error("Header with empty Desc")
	}
}

// Property: write-then-read preserves any ACGT sequence set.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(lens []uint8) bool {
		if len(lens) > 20 {
			lens = lens[:20]
		}
		var recs []*Record
		for i, l := range lens {
			seq := bytes.Repeat([]byte("ACGT"), int(l)%64+1)
			recs = append(recs, &Record{ID: "s" + string(rune('a'+i%26)) + string(rune('0'+i/26)), Seq: seq})
		}
		if len(recs) == 0 {
			return true
		}
		var buf bytes.Buffer
		if err := WriteAll(&buf, recs); err != nil {
			return false
		}
		got, err := readAll(&buf)
		if err != nil || len(got) != len(recs) {
			return false
		}
		for i := range recs {
			if got[i].ID != recs[i].ID || !bytes.Equal(got[i].Seq, recs[i].Seq) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
