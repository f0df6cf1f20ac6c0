package cap3

import (
	"fmt"
	"sort"

	"pegflow/internal/bio/align"
	"pegflow/internal/bio/fasta"
	"pegflow/internal/bio/seq"
)

// Params configures assembly.
type Params struct {
	// MinOverlap is the minimum overlap length in bases (CAP3 -o,
	// default 40).
	MinOverlap int
	// MinIdentity is the minimum overlap identity (CAP3 -p, default
	// 0.90).
	MinIdentity float64
	// KmerSize seeds candidate detection (default 12).
	KmerSize int
	// MinSharedKmers is the number of shared k-mers required before an
	// overlap alignment is attempted (default 2).
	MinSharedKmers int
	// Overlap sets the alignment scoring.
	Overlap align.OverlapParams
}

// DefaultParams returns CAP3-like defaults. The overlap alignment is
// unbanded (Band 0): a band is centered on the end-to-end diagonal, but a
// dovetail overlap's true diagonal is offset by the unknown non-overlapping
// length, so banding would miss genuine overlaps.
func DefaultParams() Params {
	p := align.DefaultOverlapParams()
	p.Band = 0
	return Params{
		MinOverlap:     40,
		MinIdentity:    0.90,
		KmerSize:       12,
		MinSharedKmers: 2,
		Overlap:        p,
	}
}

// Placement records one read's position in a contig.
type Placement struct {
	// ReadID is the input sequence identifier.
	ReadID string
	// Offset is the approximate start of the read within the contig.
	Offset int
	// Reverse reports whether the read joined reverse-complemented.
	Reverse bool
}

// Contig is one assembled sequence.
type Contig struct {
	// ID is the contig name ("Contig1", ...).
	ID string
	// Seq is the consensus sequence.
	Seq []byte
	// Reads lists the constituent reads.
	Reads []Placement
}

// Result is the output of one assembly.
type Result struct {
	// Contigs holds sequences assembled from ≥2 reads.
	Contigs []*Contig
	// Singlets holds inputs that joined nothing.
	Singlets []*fasta.Record
}

// unit is a working sequence during assembly (a read or partial contig).
type unit struct {
	seq   []byte
	reads []Placement
}

// Assemble runs the assembler over the input records.
func Assemble(records []*fasta.Record, p Params) (*Result, error) {
	if p.MinOverlap <= 0 || p.MinIdentity <= 0 || p.MinIdentity > 1 {
		return nil, fmt.Errorf("cap3: invalid thresholds: overlap %d, identity %v", p.MinOverlap, p.MinIdentity)
	}
	if p.KmerSize <= 0 || p.KmerSize > seq.MaxK {
		return nil, fmt.Errorf("cap3: invalid k-mer size %d", p.KmerSize)
	}
	seen := make(map[string]bool, len(records))
	units := make([]*unit, 0, len(records))
	for _, rec := range records {
		if rec.ID == "" {
			return nil, fmt.Errorf("cap3: record with empty ID")
		}
		if seen[rec.ID] {
			return nil, fmt.Errorf("cap3: duplicate read ID %q", rec.ID)
		}
		seen[rec.ID] = true
		if len(rec.Seq) == 0 {
			return nil, fmt.Errorf("cap3: read %q has empty sequence", rec.ID)
		}
		units = append(units, &unit{
			seq:   append([]byte(nil), rec.Seq...),
			reads: []Placement{{ReadID: rec.ID}},
		})
	}

	// Greedy merging: find the best overlap among all candidate pairs,
	// merge, repeat until nothing passes the thresholds.
	for len(units) > 1 {
		bi, bj, bres, brev, bswap := findBest(units, p)
		if bi < 0 {
			break
		}
		a, b := units[bi], units[bj]
		if bswap {
			a, b = b, a
		}
		merged := merge(a, b, bres, brev)
		// Remove the two inputs, append the merged unit.
		keep := units[:0]
		for k, u := range units {
			if k != bi && k != bj {
				keep = append(keep, u)
			}
		}
		units = append(keep, merged)
	}

	res := &Result{}
	contigN := 0
	for _, u := range units {
		if len(u.reads) == 1 {
			res.Singlets = append(res.Singlets, &fasta.Record{ID: u.reads[0].ReadID, Seq: u.seq})
			continue
		}
		contigN++
		res.Contigs = append(res.Contigs, &Contig{
			ID:    fmt.Sprintf("Contig%d", contigN),
			Seq:   u.seq,
			Reads: u.reads,
		})
	}
	return res, nil
}

// findBest scans candidate pairs and returns the best passing overlap:
// indexes i < j, the alignment (of a=units[x], b=units[y] with x,y the
// merge order), whether b was reverse-complemented, and whether the merge
// order is (j before i).
func findBest(units []*unit, p Params) (bi, bj int, best align.Result, brev, bswap bool) {
	bi, bj = -1, -1
	type cand struct {
		i, j int
		rev  bool
	}
	counts := make(map[cand]int)
	index := make(map[seq.Kmer][]int)
	for ui, u := range units {
		seq.EachKmer(u.seq, p.KmerSize, func(_ int, km seq.Kmer) {
			index[km] = append(index[km], ui)
		})
	}
	// Forward candidates.
	for km, list := range index {
		_ = km
		for x := 0; x < len(list); x++ {
			for y := x + 1; y < len(list); y++ {
				if list[x] != list[y] {
					i, j := list[x], list[y]
					if i > j {
						i, j = j, i
					}
					counts[cand{i, j, false}]++
				}
			}
		}
	}
	// Reverse candidates: k-mers of each unit's reverse complement
	// against the forward index.
	for ui, u := range units {
		rc := seq.ReverseComplement(u.seq)
		seq.EachKmer(rc, p.KmerSize, func(_ int, km seq.Kmer) {
			for _, vi := range index[km] {
				if vi == ui {
					continue
				}
				i, j := ui, vi
				if i > j {
					i, j = j, i
				}
				counts[cand{i, j, true}]++
			}
		})
	}

	// Deterministic candidate order: map iteration order must not leak
	// into the greedy merge order (ties on score are broken by candidate
	// position).
	cands := make([]cand, 0, len(counts))
	for c, n := range counts {
		if n >= p.MinSharedKmers {
			cands = append(cands, c)
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		x, y := cands[a], cands[b]
		if x.i != y.i {
			return x.i < y.i
		}
		if x.j != y.j {
			return x.j < y.j
		}
		return !x.rev && y.rev
	})

	bestScore := 0
	for _, c := range cands {
		a, b := units[c.i].seq, units[c.j].seq
		if c.rev {
			b = seq.ReverseComplement(b)
		}
		consider := func(r align.Result, minLen int, swap bool) {
			if r.Length < minLen || r.Identity() < p.MinIdentity {
				return
			}
			if r.Score > bestScore {
				bestScore = r.Score
				bi, bj = c.i, c.j
				best = r
				brev = c.rev
				bswap = swap
			}
		}
		// Both dovetail orders.
		consider(align.Overlap(a, b, p.Overlap), p.MinOverlap, false)
		consider(align.Overlap(b, a, p.Overlap), p.MinOverlap, true)
		// Containment: the shorter sequence fitted inside the longer.
		// The required span is the shorter's full length (or MinOverlap
		// for very short reads).
		fitMin := p.MinOverlap
		if len(a) >= len(b) {
			if len(b) < fitMin {
				fitMin = len(b)
			}
			consider(align.Fit(a, b, p.Overlap), fitMin, false)
		} else {
			if len(a) < fitMin {
				fitMin = len(a)
			}
			consider(align.Fit(b, a, p.Overlap), fitMin, true)
		}
	}
	return bi, bj, best, brev, bswap
}

// merge joins unit b onto unit a using the overlap r computed on (a.seq,
// b'), where b' is b.seq reverse-complemented when rev is set.
func merge(a, b *unit, r align.Result, rev bool) *unit {
	bseq := b.seq
	if rev {
		bseq = seq.ReverseComplement(bseq)
	}
	var mergedSeq []byte
	if r.BEnd >= len(bseq) {
		// Containment: b lies entirely within a.
		mergedSeq = repairN(append([]byte(nil), a.seq...), bseq, r.AStart)
	} else {
		mergedSeq = make([]byte, 0, len(a.seq)+len(bseq)-r.BEnd)
		mergedSeq = append(mergedSeq, a.seq...)
		mergedSeq = repairN(mergedSeq, bseq[:r.BEnd], r.AStart)
		mergedSeq = append(mergedSeq, bseq[r.BEnd:]...)
	}
	out := &unit{seq: mergedSeq}
	out.reads = append(out.reads, a.reads...)
	boff := r.AStart
	for _, pl := range b.reads {
		out.reads = append(out.reads, Placement{
			ReadID:  pl.ReadID,
			Offset:  boff + pl.Offset,
			Reverse: pl.Reverse != rev,
		})
	}
	return out
}

// repairN overwrites N bases in dst (starting at offset) with the
// corresponding bases of src where those are definite.
func repairN(dst, src []byte, offset int) []byte {
	for i, c := range src {
		di := offset + i
		if di >= len(dst) {
			break
		}
		if dst[di] == 'N' && c != 'N' {
			dst[di] = c
		}
	}
	return dst
}
