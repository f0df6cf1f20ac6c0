package workflow

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"pegflow/internal/planner"
)

func TestPaperWorkloadScale(t *testing.T) {
	w := PaperWorkload(42)
	if len(w.Clusters) != 40000 {
		t.Errorf("clusters = %d", len(w.Clusters))
	}
	total := 0
	for _, c := range w.Clusters {
		total += c.Transcripts
		if c.Transcripts < 1 {
			t.Fatal("cluster with no transcripts")
		}
		if c.Bases < c.Transcripts {
			t.Fatal("cluster with fewer bases than transcripts")
		}
	}
	// ≈240k clustered transcripts out of the dataset's 236,529 total
	// (clusters overlap slightly with redundancy; same order).
	if total < 200000 || total > 280000 {
		t.Errorf("clustered transcripts = %d, want ≈240k", total)
	}
	if w.TotalTranscripts != 236529 {
		t.Errorf("TotalTranscripts = %d", w.TotalTranscripts)
	}
	if w.TranscriptBytes != 404<<20 || w.AlignmentBytes != 155<<20 {
		t.Errorf("input sizes = %d/%d", w.TranscriptBytes, w.AlignmentBytes)
	}
	// Sizes nonincreasing (rank-size law).
	for i := 1; i < len(w.Clusters); i++ {
		if w.Clusters[i].Transcripts > w.Clusters[i-1].Transcripts {
			t.Fatal("cluster sizes not sorted descending")
		}
	}
}

func TestSerialSecondsNearHundredHours(t *testing.T) {
	w := PaperWorkload(42)
	c := DefaultCostModel()
	h := c.SerialSeconds(w) / 3600
	if h < 95 || h > 105 {
		t.Errorf("serial = %.1f h, want ≈100 h (paper §V.B)", h)
	}
}

func TestLargestClusterIsMakespanFloor(t *testing.T) {
	w := PaperWorkload(42)
	c := DefaultCostModel()
	wmax := c.ClusterSeconds(w.Clusters[0])
	if wmax < 8000 || wmax > 11000 {
		t.Errorf("largest cluster = %.0f s, want ≈9,300 s (DESIGN.md §4)", wmax)
	}
}

func TestChunkSecondsConservation(t *testing.T) {
	w := PaperWorkload(42)
	c := DefaultCostModel()
	var serialCAP3 float64
	for _, cl := range w.Clusters {
		serialCAP3 += c.ClusterSeconds(cl)
	}
	for _, n := range []int{1, 10, 100, 300, 500} {
		chunks, err := c.ChunkSeconds(w, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(chunks) != n {
			t.Fatalf("n=%d: got %d chunks", n, len(chunks))
		}
		var sum float64
		for _, v := range chunks {
			sum += v
		}
		// Sum of chunk work = serial CAP3 work + n per-task bases.
		want := serialCAP3 + float64(n)*c.TaskBase
		if math.Abs(sum-want)/want > 1e-9 {
			t.Errorf("n=%d: chunk sum %.1f, want %.1f", n, sum, want)
		}
	}
}

func TestChunkSecondsMaxShrinksThenPlateaus(t *testing.T) {
	w := PaperWorkload(42)
	c := DefaultCostModel()
	maxAt := func(n int) float64 {
		chunks, err := c.ChunkSeconds(w, n)
		if err != nil {
			t.Fatal(err)
		}
		m := 0.0
		for _, v := range chunks {
			if v > m {
				m = v
			}
		}
		return m
	}
	m10, m100, m300 := maxAt(10), maxAt(100), maxAt(300)
	if m100 >= m10/2 {
		t.Errorf("max chunk n=100 (%.0f) not far below n=10 (%.0f)", m100, m10)
	}
	wmax := c.ClusterSeconds(w.Clusters[0])
	// Plateau: the largest cluster is an unsplittable floor.
	if m300 < wmax {
		t.Errorf("max chunk n=300 (%.0f) below largest-cluster floor (%.0f)", m300, wmax)
	}
	if m300 > 1.5*wmax {
		t.Errorf("max chunk n=300 (%.0f) too far above floor (%.0f)", m300, wmax)
	}
}

func TestChunkSecondsRejectsBadN(t *testing.T) {
	c := DefaultCostModel()
	if _, err := c.ChunkSeconds(PaperWorkload(1), 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := c.ChunkSeconds(PaperWorkload(1), -3); err == nil {
		t.Error("negative n accepted")
	}
}

func TestBuildDAXShapeFig2(t *testing.T) {
	for _, n := range []int{1, 10, 300} {
		wf, err := BuildDAX(BuilderConfig{N: n, Workload: PaperWorkload(42)})
		if err != nil {
			t.Fatal(err)
		}
		// Jobs: 2 lists + split + n cap3 + merge + merge_not_joined.
		if wf.Len() != n+5 {
			t.Errorf("n=%d: %d jobs, want %d", n, wf.Len(), n+5)
		}
		if err := wf.Validate(); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
		// Roots: the two list tasks (paper: "independent of each other,
		// and can be run at the same time").
		roots := wf.Roots()
		if len(roots) != 2 {
			t.Errorf("n=%d: roots = %v", n, roots)
		}
		// Leaves: merge_not_joined only.
		leaves := wf.Leaves()
		if len(leaves) != 1 || leaves[0] != "merge_not_joined" {
			t.Errorf("n=%d: leaves = %v", n, leaves)
		}
		// Each run_cap3 depends on split and create_list_transcripts.
		p := wf.Parents("run_cap3_0001")
		if len(p) != 2 || p[0] != "create_list_transcripts" || p[1] != "split" {
			t.Errorf("n=%d: cap3 parents = %v", n, p)
		}
		// merge fans in all n cap3 tasks.
		if got := len(wf.Parents("merge")); got != n {
			t.Errorf("n=%d: merge has %d parents", n, got)
		}
		// Critical path: list → split → cap3 → merge → merge_not_joined.
		cp, err := wf.CriticalPathLength()
		if err != nil {
			t.Fatal(err)
		}
		if cp != 5 {
			t.Errorf("n=%d: critical path = %d, want 5", n, cp)
		}
	}
}

func TestBuildDAXRuntimesSumNearSerial(t *testing.T) {
	w := PaperWorkload(42)
	c := DefaultCostModel()
	wf, err := BuildDAX(BuilderConfig{N: 300, Workload: w, Cost: c})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, j := range wf.Jobs() {
		rt := j.Profile("pegasus", "runtime")
		if rt == "" {
			t.Fatalf("job %s missing runtime profile in simulated mode", j.ID)
		}
		var v float64
		if _, err := fmt.Sscanf(rt, "%f", &v); err != nil {
			t.Fatal(err)
		}
		sum += v
	}
	serial := c.SerialSeconds(w)
	// The decomposed work should be close to but below the serial run
	// (which carries the documented serial overhead factor).
	if sum >= serial {
		t.Errorf("workflow work %.0f ≥ serial %.0f", sum, serial)
	}
	if sum < 0.7*serial {
		t.Errorf("workflow work %.0f implausibly below serial %.0f", sum, serial)
	}
}

func TestBuildDAXRealModeOmitsRuntimes(t *testing.T) {
	wf, err := BuildDAX(BuilderConfig{N: 4}) // zero workload = real mode
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range wf.Jobs() {
		if j.Profile("pegasus", "runtime") != "" {
			t.Errorf("job %s has runtime profile in real mode", j.ID)
		}
	}
}

func TestBuildDAXRejectsBadN(t *testing.T) {
	if _, err := BuildDAX(BuilderConfig{N: 0}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := BuildDAX(BuilderConfig{N: -1}); err == nil {
		t.Error("n=-1 accepted")
	}
}

func TestBuildSerialDAX(t *testing.T) {
	w := PaperWorkload(42)
	wf, err := BuildSerialDAX(w, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if wf.Len() != 1 {
		t.Fatalf("serial DAX has %d jobs", wf.Len())
	}
	j := wf.Jobs()[0]
	if j.Transformation != TrSerial {
		t.Errorf("transformation = %s", j.Transformation)
	}
	if j.Profile("pegasus", "runtime") == "" {
		t.Error("serial job missing runtime")
	}
}

func TestPaperCatalogsTwoWorlds(t *testing.T) {
	w := PaperWorkload(42)
	cats, err := PaperCatalogs(w, 300, 600)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := cats.Sites.Lookup("sandhills")
	if err != nil || !sh.SharedSoftware {
		t.Fatalf("sandhills site: %+v, %v", sh, err)
	}
	osg, err := cats.Sites.Lookup("osg")
	if err != nil || osg.SharedSoftware {
		t.Fatalf("osg site: %+v, %v", osg, err)
	}
	if osg.Slots <= sh.Slots {
		t.Errorf("OSG slots %d not above Sandhills %d (paper: OSG has more resources)",
			osg.Slots, sh.Slots)
	}
	for _, tr := range Transformations() {
		a, err := cats.Transformations.Lookup(tr, "sandhills")
		if err != nil || !a.Installed {
			t.Errorf("%s at sandhills: %+v, %v", tr, a, err)
		}
		b, err := cats.Transformations.Lookup(tr, "osg")
		if err != nil || b.Installed || b.InstallBytes == 0 {
			t.Errorf("%s at osg: %+v, %v", tr, b, err)
		}
	}
	// CAP3-bearing tasks carry the larger payload.
	cap3, _ := cats.Transformations.Lookup(TrRunCAP3, "osg")
	list, _ := cats.Transformations.Lookup(TrListTranscripts, "osg")
	if cap3.InstallBytes <= list.InstallBytes {
		t.Errorf("run_cap3 install %d not above list task %d", cap3.InstallBytes, list.InstallBytes)
	}
	for _, lfn := range []string{"transcripts.fasta", "alignments.out"} {
		if !cats.Replicas.Has(lfn) {
			t.Errorf("no replica for %s", lfn)
		}
	}
}

func TestDAXPlansOnBothSites(t *testing.T) {
	w := PaperWorkload(42)
	cats, err := PaperCatalogs(w, 300, 600)
	if err != nil {
		t.Fatal(err)
	}
	wf, err := BuildDAX(BuilderConfig{N: 10, Workload: w})
	if err != nil {
		t.Fatal(err)
	}
	sand, err := planner.New(wf, cats, planner.Options{Site: "sandhills"})
	if err != nil {
		t.Fatal(err)
	}
	osg, err := planner.New(wf, cats, planner.Options{Site: "osg"})
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 2 vs Fig. 3: identical shape, install steps only on OSG.
	if sand.Graph().Len() != osg.Graph().Len() {
		t.Errorf("plan sizes differ: %d vs %d", sand.Graph().Len(), osg.Graph().Len())
	}
	for _, j := range sand.Jobs() {
		if j.NeedsInstall {
			t.Errorf("sandhills job %s needs install", j.ID)
		}
	}
	installCount := 0
	for _, j := range osg.Jobs() {
		if j.NeedsInstall {
			installCount++
		}
	}
	if installCount != osg.Graph().Len() {
		t.Errorf("only %d/%d OSG jobs carry install steps", installCount, osg.Graph().Len())
	}
}

// Property: chunk assignment is deterministic for a seed and total work is
// conserved for any n.
func TestPropertyChunkAssignment(t *testing.T) {
	w := PaperWorkload(7)
	c := DefaultCostModel()
	base, err := c.ChunkSeconds(w, 17)
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.ChunkSeconds(w, 17)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if base[i] != again[i] {
			t.Fatal("chunk assignment not deterministic")
		}
	}
	f := func(nRaw uint16) bool {
		n := int(nRaw%700) + 1
		chunks, err := c.ChunkSeconds(w, n)
		if err != nil || len(chunks) != n {
			return false
		}
		for _, v := range chunks {
			if v < 0 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
