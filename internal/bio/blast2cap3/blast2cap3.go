package blast2cap3

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"pegflow/internal/bio/blast"
	"pegflow/internal/bio/cap3"
	"pegflow/internal/bio/fasta"
)

// cluster is a group of transcripts sharing a best protein hit.
type cluster struct {
	// Protein is the subject ID the members hit.
	Protein string
	// TranscriptIDs are the member transcripts, sorted.
	TranscriptIDs []string
}

// clusterByProtein groups transcripts by their best-scoring protein hit
// (highest bit score wins; ties break toward the lexicographically first
// subject for determinism). Clusters are returned sorted by protein ID.
func clusterByProtein(hits []blast.Hit) ([]cluster, error) {
	type bestHit struct {
		protein string
		bits    float64
	}
	best := make(map[string]bestHit)
	for _, h := range hits {
		if h.QueryID == "" || h.SubjectID == "" {
			return nil, fmt.Errorf("blast2cap3: hit with empty query or subject")
		}
		cur, ok := best[h.QueryID]
		if !ok || h.BitScore > cur.bits ||
			(h.BitScore == cur.bits && h.SubjectID < cur.protein) {
			best[h.QueryID] = bestHit{h.SubjectID, h.BitScore}
		}
	}
	// Order the queries by (protein, query); each protein's run is then
	// one cluster with its members already sorted.
	queries := make([]string, 0, len(best))
	for q := range best {
		queries = append(queries, q)
	}
	slices.SortFunc(queries, func(a, b string) int {
		return cmp.Or(strings.Compare(best[a].protein, best[b].protein), strings.Compare(a, b))
	})
	var out []cluster
	for _, q := range queries {
		if p := best[q].protein; len(out) == 0 || out[len(out)-1].Protein != p {
			out = append(out, cluster{Protein: p})
		}
		last := &out[len(out)-1]
		last.TranscriptIDs = append(last.TranscriptIDs, q)
	}
	return out, nil
}

// splitClusters deals clusters round-robin into n chunks — the paper's
// split() task dividing "alignments.out" into n smaller files. Whole
// clusters are never divided.
func splitClusters(clusters []cluster, n int) ([][]cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("blast2cap3: non-positive chunk count %d", n)
	}
	out := make([][]cluster, n)
	for i, c := range clusters {
		out[i%n] = append(out[i%n], c)
	}
	return out, nil
}

// indexTranscripts maps each transcript's ID to its record, refusing a
// duplicated ID: two records under one ID would make the assembly depend
// on which of them a cluster picks up.
func indexTranscripts(transcripts []*fasta.Record) (map[string]*fasta.Record, error) {
	index := make(map[string]*fasta.Record, len(transcripts))
	for _, tr := range transcripts {
		if _, dup := index[tr.ID]; dup {
			return nil, fmt.Errorf("blast2cap3: duplicate transcript %q", tr.ID)
		}
		index[tr.ID] = tr
	}
	return index, nil
}

// joinedPrefix starts the description of every contig record; the sorted
// IDs of the transcripts joined into the contig follow, separated by ';'.
const joinedPrefix = "joined="

// assembleChunk runs CAP3 over every cluster of one chunk — the workflow's
// run_cap3 task. Each contig becomes the record <protein>_<contig> whose
// description lists the transcripts joined into it ("joined=a;b;c").
func assembleChunk(chunk []cluster, transcripts map[string]*fasta.Record, params cap3.Params) ([]*fasta.Record, error) {
	var contigs []*fasta.Record
	for _, cluster := range chunk {
		var members []*fasta.Record
		for _, id := range cluster.TranscriptIDs {
			rec, ok := transcripts[id]
			if !ok {
				return nil, fmt.Errorf("blast2cap3: cluster %q references unknown transcript %q",
					cluster.Protein, id)
			}
			members = append(members, rec)
		}
		if len(members) < 2 {
			continue // nothing to merge
		}
		res, err := cap3.Assemble(members, params)
		if err != nil {
			return nil, fmt.Errorf("blast2cap3: cluster %q: %w", cluster.Protein, err)
		}
		for _, c := range res.Contigs {
			ids := make([]string, len(c.Reads))
			for i, p := range c.Reads {
				ids[i] = p.ReadID
			}
			slices.Sort(ids)
			contigs = append(contigs, &fasta.Record{
				ID:   cluster.Protein + "_" + c.ID,
				Desc: joinedPrefix + strings.Join(ids, ";"),
				Seq:  c.Seq,
			})
		}
	}
	return contigs, nil
}

// joinedIDs returns the transcript IDs a contig record's description
// lists as joined into it.
func joinedIDs(contig *fasta.Record) []string {
	rest, ok := strings.CutPrefix(contig.Desc, joinedPrefix)
	if !ok || rest == "" {
		return nil
	}
	return strings.Split(rest, ";")
}

// sortByID puts contig records in ID order, which does not depend on how
// the clusters were split into chunks — the workflow's merge task.
func sortByID(recs []*fasta.Record) {
	slices.SortFunc(recs, func(a, b *fasta.Record) int { return strings.Compare(a.ID, b.ID) })
}

// mergeNotJoined produces the final assembly: the merged contigs plus
// every transcript that no contig lists as joined (the paper's
// merge_not_joined step).
func mergeNotJoined(contigs, transcripts []*fasta.Record) []*fasta.Record {
	joined := make(map[string]bool)
	for _, c := range contigs {
		for _, id := range joinedIDs(c) {
			joined[id] = true
		}
	}
	out := make([]*fasta.Record, 0, len(contigs)+len(transcripts))
	out = append(out, contigs...)
	for _, tr := range transcripts {
		if !joined[tr.ID] {
			out = append(out, tr)
		}
	}
	return out
}

// Result summarizes one full blast2cap3 run.
type Result struct {
	// Assembly is the final transcript set.
	Assembly []*fasta.Record
	// Contigs counts CAP3-merged sequences in the assembly.
	Contigs int
	// Joined counts input transcripts merged into contigs.
	Joined int
	// Clusters counts protein clusters processed.
	Clusters int
}

// ReductionFraction returns the relative shrinkage of the transcript set
// ((in-out)/in) — the paper cites 8-9% for wheat.
func (r *Result) ReductionFraction(inputCount int) float64 {
	if inputCount == 0 {
		return 0
	}
	return float64(inputCount-len(r.Assembly)) / float64(inputCount)
}

// RunSerial executes the whole pipeline in one process — the paper's
// 100-hour baseline, here used at test scale: cluster, assemble every
// cluster as one chunk, and merge. It runs the steps the workflow's tasks
// run (see stages.go); its assembly, written out, has the bytes of the
// workflow's final_assembly.fasta.
func RunSerial(transcripts []*fasta.Record, hits []blast.Hit, params cap3.Params) (*Result, error) {
	index, err := indexTranscripts(transcripts)
	if err != nil {
		return nil, err
	}
	clusters, err := clusterByProtein(hits)
	if err != nil {
		return nil, err
	}
	contigs, err := assembleChunk(clusters, index, params)
	if err != nil {
		return nil, err
	}
	sortByID(contigs)
	joined := 0
	for _, c := range contigs {
		joined += len(joinedIDs(c))
	}
	return &Result{
		Assembly: mergeNotJoined(contigs, transcripts),
		Contigs:  len(contigs),
		Joined:   joined,
		Clusters: len(clusters),
	}, nil
}
