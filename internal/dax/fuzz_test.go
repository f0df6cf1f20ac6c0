package dax

import (
	"fmt"
	"testing"
)

// buildFuzzWorkflow interprets data as a little op-code program over a
// workflow: each pair of bytes adds a job, a dependency edge, or a file
// usage. The decoder is total — every byte string yields some workflow —
// so the fuzzer explores the full constructor surface including cycles,
// self-edges, duplicate files and disconnected jobs.
func buildFuzzWorkflow(data []byte) (*Workflow, []string) {
	w := New("fuzz")
	var ids []string
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		switch op % 4 {
		case 0:
			id := fmt.Sprintf("j%d", arg%32)
			if w.Job(id) == nil {
				if err := w.AddJob(&Job{ID: id, Transformation: fmt.Sprintf("t%d", arg%4)}); err == nil {
					ids = append(ids, id)
				}
			}
		case 1:
			if len(ids) > 0 {
				parent := ids[int(arg>>4)%len(ids)]
				child := ids[int(arg&0x0f)%len(ids)]
				_ = w.AddDependency(parent, child) // self/dup edges may error; must not panic
			}
		case 2:
			if len(ids) > 0 {
				w.Job(ids[int(arg>>4)%len(ids)]).AddInput(fmt.Sprintf("f%d", arg%8), int64(arg))
			}
		case 3:
			if len(ids) > 0 {
				w.Job(ids[int(arg>>4)%len(ids)]).AddOutput(fmt.Sprintf("f%d", arg%8), int64(arg))
			}
		}
	}
	return w, ids
}

// FuzzWorkflowOps checks the DAG invariants under arbitrary construction
// sequences: TopoSort yields a dependency-respecting permutation exactly
// when the graph is acyclic, Validate implies a working TopoSort, and
// Levels/CriticalPathLength agree with the sort.
func FuzzWorkflowOps(f *testing.F) {
	for _, s := range [][]byte{
		{},
		{0, 1, 0, 2, 1, 0x01},
		{0, 1, 0, 2, 0, 3, 1, 0x01, 1, 0x12, 1, 0x20}, // includes a cycle attempt
		{0, 5, 2, 0x03, 3, 0x03},                      // producer/consumer of the same file
		{0, 1, 0, 2, 3, 0x04, 2, 0x14},                // data-flow edge material
		{0, 0, 1, 0x00},                               // self-dependency attempt
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		w, _ := buildFuzzWorkflow(data)
		walked := 0
		for _, j := range w.Jobs() {
			walked += len(w.Parents(j.ID))
		}
		if w.Edges() != walked || w.Clone().Edges() != walked {
			t.Fatalf("Edges() = %d (clone %d), walking the parents counts %d", w.Edges(), w.Clone().Edges(), walked)
		}
		if w.Len() == 0 {
			if err := w.Validate(); err == nil {
				t.Fatal("Validate accepted an empty workflow")
			}
			return
		}

		order, terr := w.TopoSort()
		verr := w.Validate()
		if terr != nil {
			// A cyclic graph must fail validation too.
			if verr == nil {
				t.Fatalf("TopoSort failed (%v) but Validate passed", terr)
			}
			return
		}
		if len(order) != w.Len() {
			t.Fatalf("TopoSort returned %d of %d jobs", len(order), w.Len())
		}
		pos := make(map[string]int, len(order))
		for i, id := range order {
			if w.Job(id) == nil {
				t.Fatalf("TopoSort emitted unknown job %q", id)
			}
			if _, dup := pos[id]; dup {
				t.Fatalf("TopoSort emitted %q twice", id)
			}
			pos[id] = i
		}
		for _, j := range w.Jobs() {
			for _, p := range w.Parents(j.ID) {
				if pos[p] >= pos[j.ID] {
					t.Fatalf("dependency inverted in TopoSort: %q (%d) before parent %q (%d)",
						j.ID, pos[j.ID], p, pos[p])
				}
			}
		}

		levels, err := w.Levels()
		if err != nil {
			t.Fatalf("Levels failed on acyclic graph: %v", err)
		}
		level := make(map[string]int)
		n := 0
		for li, ids := range levels {
			for _, id := range ids {
				level[id] = li
				n++
			}
		}
		if n != w.Len() {
			t.Fatalf("Levels covered %d of %d jobs", n, w.Len())
		}
		for _, j := range w.Jobs() {
			for _, p := range w.Parents(j.ID) {
				if level[p] >= level[j.ID] {
					t.Fatalf("level of %q (%d) not above parent %q (%d)",
						j.ID, level[j.ID], p, level[p])
				}
			}
		}

		cp, err := w.CriticalPathLength()
		if err != nil {
			t.Fatalf("CriticalPathLength failed on acyclic graph: %v", err)
		}
		if cp < 1 || cp > w.Len() {
			t.Fatalf("critical path %d outside [1, %d]", cp, w.Len())
		}
		if cp != len(levels) {
			t.Fatalf("critical path %d != level count %d", cp, len(levels))
		}

		// InferDependencies may reject (a job both producing and
		// consuming a file) or introduce a cycle that Validate then
		// reports — either way, no panic.
		if err := w.InferDependencies(); err == nil {
			_, _ = w.TopoSort()
		}
	})
}
