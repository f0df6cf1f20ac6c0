package fasta

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
)

// Record is one FASTA entry.
type Record struct {
	// ID is the sequence identifier (first word of the header).
	ID string
	// Desc is the rest of the header line, if any.
	Desc string
	// Seq is the sequence data with whitespace removed.
	Seq []byte
}

// header renders the full header line content (without '>').
func (r *Record) header() string {
	if r.Desc == "" {
		return r.ID
	}
	return r.ID + " " + r.Desc
}

// reader streams records from FASTA text.
type reader struct {
	br     *bufio.Reader
	header string // pending header line (without '>'), "" before first record
	eof    bool
	line   int
}

// newReader wraps r for FASTA parsing.
func newReader(r io.Reader) *reader {
	return &reader{br: bufio.NewReaderSize(r, 64<<10)}
}

// next returns the next record, or io.EOF when the input is exhausted.
func (r *reader) next() (*Record, error) {
	if r.eof && r.header == "" {
		return nil, io.EOF
	}
	// Find the first header if we have not seen one yet.
	for r.header == "" {
		line, err := r.readLine()
		if err == io.EOF {
			r.eof = true
			return nil, io.EOF
		}
		if err != nil {
			return nil, err
		}
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, ">") {
			return nil, fmt.Errorf("fasta: line %d: expected header, got %q", r.line, truncate(line))
		}
		r.header = line[1:]
	}

	rec := parseHeader(r.header)
	r.header = ""
	var seq bytes.Buffer
	for {
		line, err := r.readLine()
		if err == io.EOF {
			r.eof = true
			break
		}
		if err != nil {
			return nil, err
		}
		if strings.HasPrefix(line, ">") {
			r.header = line[1:]
			break
		}
		for _, c := range []byte(line) {
			switch c {
			case ' ', '\t', '\r':
			default:
				seq.WriteByte(c)
			}
		}
	}
	rec.Seq = seq.Bytes()
	if rec.ID == "" {
		return nil, fmt.Errorf("fasta: line %d: record with empty identifier", r.line)
	}
	return rec, nil
}

func (r *reader) readLine() (string, error) {
	line, err := r.br.ReadString('\n')
	if err == io.EOF && line == "" {
		return "", io.EOF
	}
	if err != nil && err != io.EOF {
		return "", err
	}
	r.line++
	return strings.TrimRight(line, "\r\n"), nil
}

func parseHeader(h string) *Record {
	h = strings.TrimSpace(h)
	if i := strings.IndexAny(h, " \t"); i >= 0 {
		return &Record{ID: h[:i], Desc: strings.TrimSpace(h[i+1:])}
	}
	return &Record{ID: h}
}

func truncate(s string) string {
	if len(s) > 40 {
		return s[:40] + "..."
	}
	return s
}

// readAll parses every record from r.
func readAll(r io.Reader) ([]*Record, error) {
	fr := newReader(r)
	var out []*Record
	for {
		rec, err := fr.next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

// ReadFile parses every record from the named file.
func ReadFile(path string) ([]*Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readAll(f)
}

// writer emits records with sequence lines wrapped at Width columns.
type writer struct {
	w io.Writer
	// Width is the wrap column (default 70 when 0).
	Width int
}

// newWriter returns a writer targeting w.
func newWriter(w io.Writer) *writer { return &writer{w: w} }

// write emits one record.
func (w *writer) write(rec *Record) error {
	if rec.ID == "" {
		return fmt.Errorf("fasta: writing record with empty identifier")
	}
	width := w.Width
	if width <= 0 {
		width = 70
	}
	if _, err := fmt.Fprintf(w.w, ">%s\n", rec.header()); err != nil {
		return err
	}
	seq := rec.Seq
	for len(seq) > 0 {
		n := width
		if n > len(seq) {
			n = len(seq)
		}
		if _, err := w.w.Write(seq[:n]); err != nil {
			return err
		}
		if _, err := io.WriteString(w.w, "\n"); err != nil {
			return err
		}
		seq = seq[n:]
	}
	return nil
}

// WriteAll emits all records to w.
func WriteAll(w io.Writer, recs []*Record) error {
	fw := newWriter(w)
	for _, rec := range recs {
		if err := fw.write(rec); err != nil {
			return err
		}
	}
	return nil
}

// WriteFile writes all records to the named file.
func WriteFile(path string, recs []*Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := WriteAll(bw, recs); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
