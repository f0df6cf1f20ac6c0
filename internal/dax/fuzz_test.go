package dax

import (
	"fmt"
	"reflect"
	"testing"
)

// buildFuzzWorkflow interprets data as a little op-code program and replays
// it on a Workflow and on the reference: each pair of bytes adds a job, a
// dependency edge, or a file usage, and an op byte with its high bit set
// first reads both graphs and requires equal answers, so a topology derived
// before an edit must not survive it. The decoder is total — every byte
// string yields some workflow — so the fuzzer explores the full constructor
// surface including cycles, self-edges, duplicate edges, duplicate files and
// disconnected jobs.
func buildFuzzWorkflow(t *testing.T, data []byte) (*Workflow, *referenceWorkflow) {
	w, ref := New("fuzz"), newReference("fuzz")
	var ids []string
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		if op&0x80 != 0 {
			sameAnswers(t, w, ref)
		}
		switch op % 4 {
		case 0:
			id := fmt.Sprintf("j%d", arg%32)
			if w.Job(id) == nil {
				j := &Job{ID: id, Transformation: fmt.Sprintf("t%d", arg%4)}
				err := w.AddJob(j)
				same(t, "AddJob("+id+")", errText(err), errText(ref.AddJob(j.Clone())))
				if err == nil {
					ids = append(ids, id)
				}
			}
		case 1:
			if len(ids) > 0 {
				parent := ids[int(arg>>4)%len(ids)]
				child := ids[int(arg&0x0f)%len(ids)]
				// Self and duplicate edges may error; neither may panic.
				same(t, "AddDependency("+parent+", "+child+")",
					errText(w.AddDependency(parent, child)), errText(ref.AddDependency(parent, child)))
			}
		case 2:
			if len(ids) > 0 {
				id, lfn := ids[int(arg>>4)%len(ids)], fmt.Sprintf("f%d", arg%8)
				w.Job(id).AddInput(lfn, int64(arg))
				ref.Job(id).AddInput(lfn, int64(arg))
			}
		case 3:
			if len(ids) > 0 {
				id, lfn := ids[int(arg>>4)%len(ids)], fmt.Sprintf("f%d", arg%8)
				w.Job(id).AddOutput(lfn, int64(arg))
				ref.Job(id).AddOutput(lfn, int64(arg))
			}
		}
	}
	return w, ref
}

// sameAnswers requires every query of w to answer as the reference does.
func sameAnswers(t *testing.T, w *Workflow, ref *referenceWorkflow) {
	t.Helper()
	jobs := w.Jobs()
	same(t, "Jobs", jobs, ref.Jobs())
	for _, id := range append(jobIDs(jobs), "missing") {
		same(t, "Parents("+id+")", w.Parents(id), ref.Parents(id))
		same(t, "Children("+id+")", w.Children(id), ref.Children(id))
	}
	same(t, "Roots", w.Roots(), ref.Roots())
	same(t, "Leaves", w.Leaves(), ref.Leaves())
	same(t, "Edges", w.Edges(), ref.Edges())
	same(t, "TopoSort", outcome(w.TopoSort()), outcome(ref.TopoSort()))
	same(t, "Levels", outcome(w.Levels()), outcome(ref.Levels()))
	same(t, "CriticalPathLength", outcome(w.CriticalPathLength()), outcome(ref.CriticalPathLength()))
	same(t, "Validate", errText(w.Validate()), errText(ref.Validate()))
	valid := outcome(ref.ValidOrder())
	same(t, "ValidOrder", outcome(w.ValidOrder()), valid)

	d, err := w.Dense()
	same(t, "Dense", errText(err), valid.Err)
	if err != nil {
		return
	}
	var order []string
	for _, k := range d.Order() {
		order = append(order, d.Job(k).ID)
	}
	same(t, "Dense().Order()", order, valid.V)
	for _, id := range order {
		k, ok := d.Number(id)
		if !ok || d.Job(k).ID != id {
			t.Fatalf("Dense().Number(%q) = %d, %v", id, k, ok)
		}
		var kids []string
		for _, c := range d.Children(k) {
			kids = append(kids, d.Job(c).ID)
		}
		same(t, "Dense().Children("+id+")", kids, ref.Children(id))
	}
	if _, ok := d.Number("missing"); ok {
		t.Fatal(`Dense().Number("missing") found a job`)
	}
}

func jobIDs(jobs []*Job) []string {
	out := make([]string, len(jobs))
	for i, j := range jobs {
		out[i] = j.ID
	}
	return out
}

// result is a query's value and error text, compared as one.
type result[T any] struct {
	V   T
	Err string
}

func outcome[T any](v T, err error) result[T] { return result[T]{v, errText(err)} }

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func same(t *testing.T, what string, got, want any) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s = %#v, reference %#v", what, got, want)
	}
}

// FuzzWorkflowOps replays arbitrary construction sequences on the Workflow
// and on the reference map-of-maps graph and requires equal answers from
// every query, on the graph, on its Clone (before and after the clone is
// edited) and after InferDependencies. It also checks the DAG invariants
// themselves: TopoSort yields a dependency-respecting permutation exactly
// when the graph is acyclic, Validate implies a working TopoSort, and
// Levels/CriticalPathLength agree with the sort.
func FuzzWorkflowOps(f *testing.F) {
	for _, s := range [][]byte{
		{},
		{0, 1, 0, 2, 1, 0x01},
		{0, 1, 0, 2, 0, 3, 1, 0x01, 1, 0x12, 1, 0x20},       // includes a cycle attempt
		{0, 5, 2, 0x03, 3, 0x03},                            // producer/consumer of the same file
		{0, 1, 0, 2, 3, 0x04, 2, 0x14},                      // data-flow edge material
		{0, 0, 1, 0x00},                                     // self-dependency attempt
		{0, 1, 0, 2, 1, 0x01, 1, 0x01, 0x81, 0x01},          // one edge three times, read before the third
		{0, 1, 0, 2, 0, 3, 1, 0x01, 0x81, 0x02, 0x80, 0x04}, // edits after reads: an edge, then a job
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		w, ref := buildFuzzWorkflow(t, data)
		sameAnswers(t, w, ref)
		clone, refClone := w.Clone(), ref.Clone()
		sameAnswers(t, clone, refClone)
		if w.Len() > 0 {
			// An edit of the clone reaches neither original.
			first := w.Jobs()[0].ID
			for _, err := range []error{
				clone.AddJob(&Job{ID: "extra", Transformation: "t"}),
				refClone.AddJob(&Job{ID: "extra", Transformation: "t"}),
				clone.AddDependency(first, "extra"),
				refClone.AddDependency(first, "extra"),
			} {
				if err != nil {
					t.Fatal(err)
				}
			}
			sameAnswers(t, clone, refClone)
			sameAnswers(t, w, ref)
		}

		walked := 0
		for _, j := range w.Jobs() {
			walked += len(w.Parents(j.ID))
		}
		if w.Edges() != walked {
			t.Fatalf("Edges() = %d, walking the parents counts %d", w.Edges(), walked)
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
		} else {
			checkOrderAndLevels(t, w, order)
		}

		// InferDependencies may reject (a job both producing and consuming a
		// file) or introduce a cycle that Validate then reports — either
		// way, no panic, and the same answers as the reference.
		same(t, "InferDependencies", errText(w.InferDependencies()), errText(ref.InferDependencies()))
		sameAnswers(t, w, ref)
	})
}

// checkOrderAndLevels checks an acyclic graph's order, levels and critical
// path against its edges.
func checkOrderAndLevels(t *testing.T, w *Workflow, order []string) {
	t.Helper()
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
}
