package blast

import (
	"fmt"
	"math"
	"sort"

	"pegflow/internal/bio/align"
	"pegflow/internal/bio/seq"
)

// Hit is one tabular alignment record (BLAST outfmt 6).
type Hit struct {
	// QueryID and SubjectID name the transcript and the protein.
	QueryID, SubjectID string
	// PercentIdentity is the identity over the alignment, in percent.
	PercentIdentity float64
	// Length is the alignment length in residues.
	Length int
	// Mismatches and GapOpens summarize the alignment.
	Mismatches, GapOpens int
	// QStart/QEnd are 1-based query coordinates in nucleotides;
	// SStart/SEnd are 1-based subject coordinates in residues.
	QStart, QEnd, SStart, SEnd int
	// EValue and BitScore rate the hit.
	EValue, BitScore float64
}

// Params configures the search.
type Params struct {
	// WordSize is the seed length in residues (BLASTX default 3).
	WordSize int
	// NeighborThreshold is the minimum BLOSUM62 word score for a
	// database word to be indexed as a neighbor seed (BLAST's T).
	NeighborThreshold int
	// XDrop stops ungapped extension when the score falls this far
	// below the best seen.
	XDrop int
	// MinUngappedScore gates gapped extension (BLAST's two-hit
	// heuristic is approximated by this score cutoff).
	MinUngappedScore int
	// MaxEValue filters reported hits.
	MaxEValue float64
	// Gap penalties for the gapped stage.
	Gap align.ProteinParams
	// MaxHitsPerQuery caps reported hits per query (0 = unlimited).
	MaxHitsPerQuery int
}

// DefaultParams returns BLASTX-like defaults.
func DefaultParams() Params {
	return Params{
		WordSize:          3,
		NeighborThreshold: 11,
		XDrop:             7,
		MinUngappedScore:  22,
		MaxEValue:         1e-5,
		Gap:               align.DefaultProteinParams(),
		MaxHitsPerQuery:   25,
	}
}

// Karlin-Altschul parameters for BLOSUM62 with gap 11/1 (NCBI gapped
// values).
const (
	kaLambda = 0.267
	kaK      = 0.041
)

// bitScore converts a raw score to bits.
func bitScore(raw int) float64 {
	return (kaLambda*float64(raw) - math.Log(kaK)) / math.Ln2
}

// eValue computes the expected number of alignments with at least the raw
// score in a search space of m×n residues.
func eValue(raw, queryLen, dbLen int) float64 {
	return float64(queryLen) * float64(dbLen) * math.Exp(-kaLambda*float64(raw)+math.Log(kaK))
}

// Protein is one database entry.
type Protein struct {
	ID  string
	Seq []byte
}

// DB is a word-indexed protein database.
type DB struct {
	proteins []Protein
	params   Params
	// index maps a packed word to (protein, position) postings.
	index map[uint32][]posting
	// residues is the database size for e-value computation.
	residues int
}

type posting struct {
	protein int32
	pos     int32
}

// packWord packs up to 5 residues into a uint32 via a 25-symbol alphabet.
func packWord(w []byte) (uint32, bool) {
	var v uint32
	for _, c := range w {
		i := aaCode(c)
		if i < 0 {
			return 0, false
		}
		v = v*25 + uint32(i)
	}
	return v, true
}

func aaCode(c byte) int {
	switch c {
	case 'A':
		return 0
	case 'R':
		return 1
	case 'N':
		return 2
	case 'D':
		return 3
	case 'C':
		return 4
	case 'Q':
		return 5
	case 'E':
		return 6
	case 'G':
		return 7
	case 'H':
		return 8
	case 'I':
		return 9
	case 'L':
		return 10
	case 'K':
		return 11
	case 'M':
		return 12
	case 'F':
		return 13
	case 'P':
		return 14
	case 'S':
		return 15
	case 'T':
		return 16
	case 'W':
		return 17
	case 'Y':
		return 18
	case 'V':
		return 19
	default:
		return -1
	}
}

// NewDB indexes the given proteins.
func NewDB(proteins []Protein, p Params) (*DB, error) {
	if p.WordSize < 2 || p.WordSize > 5 {
		return nil, fmt.Errorf("blast: word size %d outside [2,5]", p.WordSize)
	}
	db := &DB{proteins: proteins, params: p, index: make(map[uint32][]posting)}
	for pi, prot := range proteins {
		if prot.ID == "" {
			return nil, fmt.Errorf("blast: protein %d with empty ID", pi)
		}
		db.residues += len(prot.Seq)
		for i := 0; i+p.WordSize <= len(prot.Seq); i++ {
			w, ok := packWord(prot.Seq[i : i+p.WordSize])
			if !ok {
				continue
			}
			db.index[w] = append(db.index[w], posting{int32(pi), int32(i)})
		}
	}
	return db, nil
}

// Search runs the translated query against the database.
func (db *DB) Search(queryID string, dna []byte) ([]Hit, error) {
	p := db.params
	type key struct {
		protein int32
		frame   int8
	}
	// Best raw alignment per (protein, frame) pair.
	best := make(map[key]align.Result)

	for frame := 0; frame < 6; frame++ {
		prot, err := seq.Translate(dna, frame)
		if err != nil {
			return nil, err
		}
		if len(prot) < p.WordSize {
			continue
		}
		seen := make(map[key]bool)
		for qi := 0; qi+p.WordSize <= len(prot); qi++ {
			word := prot[qi : qi+p.WordSize]
			w, ok := packWord(word)
			if !ok {
				continue
			}
			// Self-score gate: skip low-complexity words whose
			// self-score cannot reach the neighbor threshold.
			if wordScore(word, word) < p.NeighborThreshold {
				continue
			}
			for _, post := range db.index[w] {
				k := key{post.protein, int8(frame)}
				if seen[k] {
					continue
				}
				subj := db.proteins[post.protein].Seq
				// Ungapped extension around the seed.
				raw := extendUngapped(prot, subj, qi, int(post.pos), p.WordSize, p.XDrop)
				if raw < p.MinUngappedScore {
					continue
				}
				seen[k] = true
				r := align.LocalProtein(prot, subj, p.Gap)
				if r.Score <= 0 {
					continue
				}
				if old, ok := best[k]; !ok || r.Score > old.Score {
					best[k] = r
				}
			}
		}
		// Convert frame-local results into hits lazily below; store
		// the frame in the key.
	}

	var hits []Hit
	for k, r := range best {
		ev := eValue(r.Score, len(dna), db.residues)
		if ev > p.MaxEValue {
			continue
		}
		h := Hit{
			QueryID:         queryID,
			SubjectID:       db.proteins[k.protein].ID,
			PercentIdentity: 100 * r.Identity(),
			Length:          r.Length,
			Mismatches:      r.Length - r.Matches, // includes gap columns, as in practice rare
			SStart:          r.BStart + 1,
			SEnd:            r.BEnd,
			EValue:          ev,
			BitScore:        bitScore(r.Score),
		}
		h.QStart, h.QEnd = nucCoords(int(k.frame), len(dna), r.AStart, r.AEnd)
		hits = append(hits, h)
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].BitScore != hits[j].BitScore {
			return hits[i].BitScore > hits[j].BitScore
		}
		if hits[i].SubjectID != hits[j].SubjectID {
			return hits[i].SubjectID < hits[j].SubjectID
		}
		// Same subject in two frames with equal score: order by query
		// coordinates so results never depend on map iteration order.
		return hits[i].QStart < hits[j].QStart
	})
	if p.MaxHitsPerQuery > 0 && len(hits) > p.MaxHitsPerQuery {
		hits = hits[:p.MaxHitsPerQuery]
	}
	return hits, nil
}

// translate wraps seq.Translate without importing it here to avoid an
// import cycle risk; defined in translate.go.

// wordScore scores two equal-length words under BLOSUM62.
func wordScore(a, b []byte) int {
	s := 0
	for i := range a {
		s += align.Blosum62(a[i], b[i])
	}
	return s
}

// extendUngapped extends a seed along its diagonal in both directions with
// an X-drop cutoff, returning the best score.
func extendUngapped(q, s []byte, qi, si, w, xdrop int) int {
	score := wordScore(q[qi:qi+w], s[si:si+w])
	best := score
	// Right.
	i, j := qi+w, si+w
	cur := score
	for i < len(q) && j < len(s) {
		cur += align.Blosum62(q[i], s[j])
		if cur > best {
			best = cur
		}
		if best-cur > xdrop {
			break
		}
		i++
		j++
	}
	// Left.
	cur = best
	i, j = qi-1, si-1
	for i >= 0 && j >= 0 {
		cur += align.Blosum62(q[i], s[j])
		if cur > best {
			best = cur
		}
		if best-cur > xdrop {
			break
		}
		i--
		j--
	}
	return best
}

// nucCoords converts 0-based protein alignment coordinates in a frame to
// 1-based nucleotide coordinates on the original query (BLASTX reports
// reverse-frame hits with QStart > QEnd).
func nucCoords(frame, dnaLen, aStart, aEnd int) (int, int) {
	if frame < 3 {
		start := frame + 3*aStart + 1
		end := frame + 3*aEnd
		return start, end
	}
	off := frame - 3
	// Position p in the reverse-complement maps to dnaLen-p on the
	// forward strand.
	start := dnaLen - (off + 3*aStart)
	end := dnaLen - (off + 3*aEnd) + 1
	return start, end
}
