package blast

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Tabular I/O for BLAST outfmt 6: twelve tab-separated columns
//
//	qseqid sseqid pident length mismatch gapopen qstart qend sstart send evalue bitscore
//
// which is the "alignments.out" format blast2cap3 consumes.

// writeTabular writes hits in outfmt-6 order.
func writeTabular(w io.Writer, hits []Hit) error {
	bw := bufio.NewWriter(w)
	for _, h := range hits {
		if _, err := fmt.Fprintf(bw, "%s\t%s\t%.2f\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.2e\t%.1f\n",
			h.QueryID, h.SubjectID, h.PercentIdentity, h.Length, h.Mismatches, h.GapOpens,
			h.QStart, h.QEnd, h.SStart, h.SEnd, h.EValue, h.BitScore); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteTabularFile writes hits to the named file.
func WriteTabularFile(path string, hits []Hit) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeTabular(f, hits); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseTabular reads outfmt-6 records. Blank lines and '#' comments are
// skipped.
func parseTabular(r io.Reader) ([]Hit, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var out []Hit
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		h, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("blast: line %d: %w", lineNo, err)
		}
		out = append(out, h)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ParseTabularFile reads outfmt-6 records from the named file.
func ParseTabularFile(path string) ([]Hit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseTabular(f)
}

func parseLine(line string) (Hit, error) {
	f := strings.Split(line, "\t")
	if len(f) != 12 {
		return Hit{}, fmt.Errorf("expected 12 tab-separated fields, got %d", len(f))
	}
	var h Hit
	h.QueryID, h.SubjectID = f[0], f[1]
	if h.QueryID == "" || h.SubjectID == "" {
		return Hit{}, fmt.Errorf("empty query or subject ID")
	}
	var err error
	if h.PercentIdentity, err = strconv.ParseFloat(f[2], 64); err != nil {
		return Hit{}, fmt.Errorf("pident: %w", err)
	}
	ints := []*int{&h.Length, &h.Mismatches, &h.GapOpens, &h.QStart, &h.QEnd, &h.SStart, &h.SEnd}
	for i, dst := range ints {
		v, err := strconv.Atoi(f[3+i])
		if err != nil {
			return Hit{}, fmt.Errorf("field %d: %w", 4+i, err)
		}
		*dst = v
	}
	if h.EValue, err = strconv.ParseFloat(f[10], 64); err != nil {
		return Hit{}, fmt.Errorf("evalue: %w", err)
	}
	if h.BitScore, err = strconv.ParseFloat(f[11], 64); err != nil {
		return Hit{}, fmt.Errorf("bitscore: %w", err)
	}
	return h, nil
}
