// External so that the readers can share the paper's own workflow (package
// workflow imports dax).

package dax_test

import (
	"reflect"
	"sync"
	"testing"

	"pegflow/internal/dax"
	"pegflow/internal/workflow"
)

// readings are the answers of the queries that derive a topology.
type readings struct {
	split, transcripts []string
	order              []string
	levels             [][]string
}

func read(t *testing.T, w *dax.Workflow) readings {
	r := readings{split: w.Children("split"), transcripts: w.Children("create_list_transcripts")}
	var err error
	if r.order, err = w.TopoSort(); err != nil {
		t.Error(err)
	}
	if r.levels, err = w.Levels(); err != nil {
		t.Error(err)
	}
	return r
}

// TestConcurrentReadersShareOneTopology: eight goroutines make the first
// reads of one workflow at once — each derives the topology or takes the one
// another published — and every one of them gets the answers a lone reader of
// the same workflow gets. A cached workflow is read this way by the cells
// that share it. CI runs this under -race -count=10.
func TestConcurrentReadersShareOneTopology(t *testing.T) {
	cfg := workflow.BuilderConfig{N: 500, Workload: workflow.PaperWorkload(42)}
	build := func() *dax.Workflow {
		w, err := workflow.BuildDAX(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// BuildDAX validates, which reads; adding an edge the workflow has
		// leaves its graph as it was and its topology underived.
		if err := w.AddDependency("split", workflow.ChunkJobID(0)); err != nil {
			t.Fatal(err)
		}
		return w
	}
	want := read(t, build())

	shared := build()
	got := make([]readings, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[g] = read(t, shared)
		}()
	}
	close(start)
	wg.Wait()
	for g, r := range got {
		if !reflect.DeepEqual(r, want) {
			t.Errorf("reader %d got answers that differ from a lone reader's", g)
		}
	}
}
