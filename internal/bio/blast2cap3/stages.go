package blast2cap3

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"pegflow/internal/bio/blast"
	"pegflow/internal/bio/cap3"
	"pegflow/internal/bio/fasta"
)

// File-level stage implementations: each function is one workflow
// transformation operating on files in a working directory, exactly as
// the Pegasus tasks do on the remote site. registry wires them to the
// transformation names used by the DAX builder (package workflow), so the
// same abstract workflow that the simulator times can be executed for
// real through localExecutor.

// stageCreateListTranscripts normalizes transcripts.fasta into the
// transcript dictionary file (the pickled SeqIO dict of the original
// Python implementation; here a normalized FASTA), refusing a duplicated
// transcript ID as RunSerial does.
func stageCreateListTranscripts(dir, in, out string) error {
	recs, err := fasta.ReadFile(filepath.Join(dir, in))
	if err != nil {
		return fmt.Errorf("create_list_transcripts: %w", err)
	}
	if _, err := indexTranscripts(recs); err != nil {
		return fmt.Errorf("create_list_transcripts: %w", err)
	}
	if err := fasta.WriteFile(filepath.Join(dir, out), recs); err != nil {
		return fmt.Errorf("create_list_transcripts: %w", err)
	}
	return nil
}

// stageCreateListAlignments writes the sorted list of distinct query IDs
// appearing in alignments.out.
func stageCreateListAlignments(dir, in, out string) error {
	hits, err := blast.ParseTabularFile(filepath.Join(dir, in))
	if err != nil {
		return fmt.Errorf("create_list_alignments: %w", err)
	}
	seen := make(map[string]bool)
	var ids []string
	for _, h := range hits {
		if !seen[h.QueryID] {
			seen[h.QueryID] = true
			ids = append(ids, h.QueryID)
		}
	}
	sort.Strings(ids)
	return os.WriteFile(filepath.Join(dir, out),
		[]byte(strings.Join(ids, "\n")+"\n"), 0o644)
}

// stageSplit divides alignments.out into n per-chunk tabular files
// protein_1.txt .. protein_n.txt, assigning whole protein clusters
// round-robin (never splitting a cluster).
func stageSplit(dir, in string, n int) error {
	hits, err := blast.ParseTabularFile(filepath.Join(dir, in))
	if err != nil {
		return fmt.Errorf("split: %w", err)
	}
	clusters, err := clusterByProtein(hits)
	if err != nil {
		return fmt.Errorf("split: %w", err)
	}
	chunks, err := splitClusters(clusters, n)
	if err != nil {
		return fmt.Errorf("split: %w", err)
	}
	// Each chunk file carries the assigning hits of its clusters: those
	// from a member transcript to its cluster's protein.
	type member struct{ query, protein string }
	chunkOf := make(map[member]int)
	for ci, chunk := range chunks {
		for _, c := range chunk {
			for _, id := range c.TranscriptIDs {
				chunkOf[member{id, c.Protein}] = ci
			}
		}
	}
	perChunk := make([][]blast.Hit, n)
	for _, h := range hits {
		if ci, ok := chunkOf[member{h.QueryID, h.SubjectID}]; ok {
			perChunk[ci] = append(perChunk[ci], h)
		}
	}
	for i := 0; i < n; i++ {
		path := filepath.Join(dir, fmt.Sprintf("protein_%d.txt", i+1))
		if err := blast.WriteTabularFile(path, perChunk[i]); err != nil {
			return fmt.Errorf("split: %w", err)
		}
	}
	return nil
}

// stageRunCAP3 assembles the clusters of one chunk: it reads the
// transcript dictionary and the chunk's alignment file and writes the
// contigs assembleChunk builds, whose joined= descriptions let the final
// merge compute the unjoined set.
func stageRunCAP3(dir, dictFile, proteinFile, outFile string, params cap3.Params) error {
	recs, err := fasta.ReadFile(filepath.Join(dir, dictFile))
	if err != nil {
		return fmt.Errorf("run_cap3: %w", err)
	}
	index, err := indexTranscripts(recs)
	if err != nil {
		return fmt.Errorf("run_cap3: %w", err)
	}
	hits, err := blast.ParseTabularFile(filepath.Join(dir, proteinFile))
	if err != nil {
		return fmt.Errorf("run_cap3: %w", err)
	}
	clusters, err := clusterByProtein(hits)
	if err != nil {
		return fmt.Errorf("run_cap3: %w", err)
	}
	contigs, err := assembleChunk(clusters, index, params)
	if err != nil {
		return fmt.Errorf("run_cap3: %w", err)
	}
	return fasta.WriteFile(filepath.Join(dir, outFile), contigs)
}

// stageMerge concatenates the n per-chunk joined files into one.
func stageMerge(dir string, n int, outFile string) error {
	var all []*fasta.Record
	for i := 1; i <= n; i++ {
		recs, err := fasta.ReadFile(filepath.Join(dir, fmt.Sprintf("joined_%d.fasta", i)))
		if err != nil {
			return fmt.Errorf("merge: %w", err)
		}
		all = append(all, recs...)
	}
	sortByID(all)
	return fasta.WriteFile(filepath.Join(dir, outFile), all)
}

// stageMergeNotJoined writes the final assembly: contigs plus every
// transcript not named in any contig's joined= list.
func stageMergeNotJoined(dir, joinedFile, dictFile, outFile string) error {
	contigs, err := fasta.ReadFile(filepath.Join(dir, joinedFile))
	if err != nil {
		return fmt.Errorf("merge_not_joined: %w", err)
	}
	transcripts, err := fasta.ReadFile(filepath.Join(dir, dictFile))
	if err != nil {
		return fmt.Errorf("merge_not_joined: %w", err)
	}
	return fasta.WriteFile(filepath.Join(dir, outFile), mergeNotJoined(contigs, transcripts))
}

// registry maps each blast2cap3 transformation name to the task that
// runs its stage for real under localExecutor. Argument conventions match
// the DAX builder in package workflow.
func registry(params cap3.Params) map[string]task {
	return map[string]task{
		"create_list_transcripts": func(ctx *taskContext) error {
			if len(ctx.Args) != 2 {
				return fmt.Errorf("create_list_transcripts: want 2 args, got %v", ctx.Args)
			}
			return stageCreateListTranscripts(ctx.WorkDir, ctx.Args[0], ctx.Args[1])
		},
		"create_list_alignments": func(ctx *taskContext) error {
			if len(ctx.Args) != 2 {
				return fmt.Errorf("create_list_alignments: want 2 args, got %v", ctx.Args)
			}
			return stageCreateListAlignments(ctx.WorkDir, ctx.Args[0], ctx.Args[1])
		},
		"split": func(ctx *taskContext) error {
			if len(ctx.Args) != 3 || ctx.Args[0] != "-n" {
				return fmt.Errorf("split: want [-n N file], got %v", ctx.Args)
			}
			n, err := strconv.Atoi(ctx.Args[1])
			if err != nil {
				return fmt.Errorf("split: bad n %q", ctx.Args[1])
			}
			return stageSplit(ctx.WorkDir, ctx.Args[2], n)
		},
		"run_cap3": func(ctx *taskContext) error {
			if len(ctx.Args) != 3 {
				return fmt.Errorf("run_cap3: want [dict protein out], got %v", ctx.Args)
			}
			return stageRunCAP3(ctx.WorkDir, ctx.Args[0], ctx.Args[1], ctx.Args[2], params)
		},
		"merge": func(ctx *taskContext) error {
			if len(ctx.Args) != 3 || ctx.Args[0] != "-n" {
				return fmt.Errorf("merge: want [-n N out], got %v", ctx.Args)
			}
			n, err := strconv.Atoi(ctx.Args[1])
			if err != nil {
				return fmt.Errorf("merge: bad n %q", ctx.Args[1])
			}
			return stageMerge(ctx.WorkDir, n, ctx.Args[2])
		},
		"merge_not_joined": func(ctx *taskContext) error {
			if len(ctx.Args) != 3 {
				return fmt.Errorf("merge_not_joined: want [joined dict out], got %v", ctx.Args)
			}
			return stageMergeNotJoined(ctx.WorkDir, ctx.Args[0], ctx.Args[1], ctx.Args[2])
		},
	}
}
