package workflow

import (
	"fmt"
	"math"
	"sync"

	"pegflow/internal/dax"
	"pegflow/internal/lru"
	"pegflow/internal/sim/rng"
)

// Transformation names used by the blast2cap3 workflow.
const (
	TrListTranscripts = "create_list_transcripts"
	TrListAlignments  = "create_list_alignments"
	TrSplit           = "split"
	TrRunCAP3         = "run_cap3"
	TrMerge           = "merge"
	TrMergeNotJoined  = "merge_not_joined"
	// TrSerial is the monolithic serial blast2cap3 run (the baseline).
	TrSerial = "blast2cap3_serial"
)

// Transformations lists the workflow's logical executables (excluding the
// serial baseline).
func Transformations() []string {
	return []string{
		TrListTranscripts, TrListAlignments, TrSplit, TrRunCAP3, TrMerge, TrMergeNotJoined,
	}
}

// ClusterSpec describes one protein cluster of transcripts: the unit of
// CAP3 work that blast2cap3 never splits across chunks.
type ClusterSpec struct {
	// Transcripts is the number of transcripts sharing the protein hit.
	Transcripts int
	// Bases is the total nucleotide count across those transcripts.
	Bases int
}

// Workload describes a blast2cap3 input dataset at the granularity the
// simulation needs.
type Workload struct {
	// Name labels the dataset.
	Name string
	// Clusters holds the protein clusters in descending size order.
	Clusters []ClusterSpec
	// TotalTranscripts counts all transcripts including unclustered ones.
	TotalTranscripts int
	// TranscriptBytes and AlignmentBytes are the input file sizes
	// ("transcripts.fasta" 404 MB, "alignments.out" 155 MB).
	TranscriptBytes, AlignmentBytes int64
	// Seed drives the cluster→chunk assignment permutation.
	Seed uint64
	// Params records the rank-size law Clusters was synthesized from; it
	// is the workload's seed-independent fingerprint, used to memoize
	// cluster synthesis and cost-model sums and to key the plan cache
	// (package core). It is zero for hand-built workloads, which are
	// never cached. When Params is set, Clusters is shared with every
	// other workload of the same Params and must be treated as read-only;
	// code that hand-edits Clusters must clear Params.
	Params WorkloadParams
}

// PaperWorkload returns the synthetic equivalent of the paper's Triticum
// urartu dataset (NCBI BioProject PRJNA191053 after assembly): 236,529
// transcripts (404 MB FASTA) and 1,717,454 BLASTX protein hits (155 MB
// tabular). Cluster sizes follow a Zipf rank-size law m(r) = 600/√r over
// 40,000 protein clusters, which yields ≈240k clustered transcripts and —
// through the CAP3 cost model — the heavy-tailed chunk-work distribution
// that explains the paper's plateau at n ≥ 100 (DESIGN.md §4).
func PaperWorkload(seed uint64) Workload {
	return CustomWorkload(WorkloadParams{
		NumClusters:    40000,
		MaxClusterSize: 600,
		SizeExponent:   0.5,
		MeanReadLen:    1500,
	}, seed)
}

// WorkloadParams shapes a synthetic workload's cluster-size rank law
// size(r) = MaxClusterSize / r^SizeExponent.
type WorkloadParams struct {
	NumClusters    int
	MaxClusterSize int
	SizeExponent   float64
	MeanReadLen    int
}

// CustomWorkload builds a workload with the given rank-size law, keeping
// the paper's file sizes. Used by the skew ablation (DESIGN.md A4).
//
// Cluster synthesis is seed-independent (the seed only drives the
// cluster→chunk assignment permutation), so the Clusters slice is
// memoized per WorkloadParams and shared read-only across workloads —
// sweeps construct one Experiment per grid cell, and without memoization
// each paid the 40,000-cluster synthesis again. Do NOT mutate the
// returned Clusters in place: it is aliased by every workload with the
// same params (and read concurrently by sweep workers). To customize
// clusters, replace the slice wholesale and clear Params.
func CustomWorkload(p WorkloadParams, seed uint64) Workload {
	return Workload{
		Name:             "triticum-urartu-synthetic",
		Clusters:         clustersFor(p),
		TotalTranscripts: 236529,
		TranscriptBytes:  404 << 20,
		AlignmentBytes:   155 << 20,
		Seed:             seed,
		Params:           p,
	}
}

// memoCacheBytes bounds each of the two memo tables below. Their keys come
// from client documents (≈ 1 MB per paper-sized entry across the two), so
// they sit on a byte-bounded LRU: an evicted entry is re-synthesized to
// identical values on its next use, and workloads holding the old slice
// keep it alive. Each table is a single shard, so one entry may use the
// whole budget (a workload of up to ~2M clusters is still memoized) and
// eviction order is exact; the critical section is a map lookup.
const memoCacheBytes = 32 << 20

// memoEntryOverhead approximates an entry's bookkeeping (key copy, map
// slot, list pointers) so that many tiny workloads cannot outgrow the bound.
const memoEntryOverhead = 192

// hashParams routes a workload fingerprint to a cache shard.
func hashParams(p WorkloadParams) uint64 {
	h := uint64(p.NumClusters)*0x9e3779b97f4a7c15 ^ uint64(p.MaxClusterSize)*0xbf58476d1ce4e5b9 ^
		math.Float64bits(p.SizeExponent)*0x94d049bb133111eb ^ uint64(p.MeanReadLen)
	return h ^ h>>32
}

// clusterCache memoizes cluster synthesis per WorkloadParams, within
// memoCacheBytes.
var clusterCache = lru.New(memoCacheBytes, 1, hashParams,
	func(_ WorkloadParams, v []ClusterSpec) int64 {
		return 16*int64(len(v)) + memoEntryOverhead // a ClusterSpec is two ints
	})

func clustersFor(p WorkloadParams) []ClusterSpec {
	if v, ok := clusterCache.Get(p); ok {
		return v
	}
	sizes := rng.ZipfSizes(p.NumClusters, p.SizeExponent, p.MaxClusterSize)
	clusters := make([]ClusterSpec, p.NumClusters)
	for i, m := range sizes {
		clusters[i] = ClusterSpec{Transcripts: m, Bases: m * p.MeanReadLen}
	}
	clusterCache.Put(p, clusters)
	return clusters
}

// CostModel converts workload quantities into reference-machine seconds.
// The constants are calibrated (DESIGN.md §4) so that the serial run costs
// ≈100 h and the largest protein cluster ≈9,300 s, reproducing the paper's
// inline numbers.
type CostModel struct {
	// OverlapCoeff and OverlapExp give the CAP3 overlap-detection cost
	// a·m^e for a cluster of m transcripts (superlinear: pairwise
	// overlaps pruned by k-mer filtering).
	OverlapCoeff, OverlapExp float64
	// BasesPerSec is the linear consensus/I-O rate of CAP3.
	BasesPerSec float64
	// ReadMBps is the Python-side rate for scanning the input files
	// (list creation, splitting, merging).
	ReadMBps float64
	// TaskBase is the fixed per-task startup cost (interpreter launch,
	// file opening).
	TaskBase float64
	// SplitPerChunk and MergePerFile are per-chunk costs of writing and
	// reading the n intermediate files; they grow with n and create the
	// mild penalty beyond the optimum cluster count.
	SplitPerChunk, MergePerFile float64
	// SerialOverheadFactor inflates the monolithic serial run relative
	// to the sum of the workflow tasks' costs: the single-process Python
	// implementation re-queries the full transcript dictionary and
	// re-launches CAP3 per cluster with cold caches, overhead the
	// decomposed tasks do not pay (paper §V.B).
	SerialOverheadFactor float64
}

// DefaultCostModel returns the calibrated constants.
func DefaultCostModel() CostModel {
	return CostModel{
		OverlapCoeff:         0.3050,
		OverlapExp:           1.6,
		BasesPerSec:          50000,
		ReadMBps:             4.0,
		TaskBase:             30,
		SplitPerChunk:        1.0,
		MergePerFile:         4.0,
		SerialOverheadFactor: 1.115,
	}
}

// ClusterSeconds is the CAP3 cost of one protein cluster.
func (c CostModel) ClusterSeconds(spec ClusterSpec) float64 {
	if spec.Transcripts <= 1 {
		// Singleton clusters pass through without assembly work beyond I/O.
		return float64(spec.Bases) / c.BasesPerSec
	}
	return c.OverlapCoeff*math.Pow(float64(spec.Transcripts), c.OverlapExp) +
		float64(spec.Bases)/c.BasesPerSec
}

// scanSeconds is the cost of streaming through size bytes.
func (c CostModel) scanSeconds(size int64) float64 {
	return c.TaskBase + float64(size)/(c.ReadMBps*1e6)
}

// costKey pairs a workload fingerprint with a cost model — the memoization
// key for seed-independent cost sums.
type costKey struct {
	params WorkloadParams
	cost   CostModel
}

// clusterSecsCache memoizes the per-cluster CAP3 seconds of synthesized
// workloads, within memoCacheBytes: the values depend only on (params, cost
// model), while the seed only permutes which chunk each cluster lands in.
var clusterSecsCache = lru.New(memoCacheBytes, 1,
	func(k costKey) uint64 { return hashParams(k.params) },
	func(_ costKey, v []float64) int64 { return 8*int64(len(v)) + memoEntryOverhead })

// clusterSecondsAll returns memoized per-cluster seconds for a synthesized
// workload, or nil when the workload is hand-built (no Params fingerprint).
func (c CostModel) clusterSecondsAll(w Workload) []float64 {
	if w.Params == (WorkloadParams{}) {
		return nil
	}
	key := costKey{w.Params, c}
	if v, ok := clusterSecsCache.Get(key); ok {
		return v
	}
	secs := make([]float64, len(w.Clusters))
	for i, cl := range w.Clusters {
		secs[i] = c.ClusterSeconds(cl)
	}
	clusterSecsCache.Put(key, secs)
	return secs
}

// SerialSeconds is the reference-machine running time of the original
// serial blast2cap3: scan both inputs, then process every cluster
// consecutively (paper §V.B — 100 hours for the wheat dataset).
func (c CostModel) SerialSeconds(w Workload) float64 {
	total := c.scanSeconds(w.TranscriptBytes) + c.scanSeconds(w.AlignmentBytes)
	if secs := c.clusterSecondsAll(w); secs != nil {
		for _, s := range secs {
			total += s
		}
	} else {
		for _, cl := range w.Clusters {
			total += c.ClusterSeconds(cl)
		}
	}
	// Final concatenation of joined and unjoined transcripts.
	total += c.scanSeconds(w.TranscriptBytes)
	if c.SerialOverheadFactor > 1 {
		total *= c.SerialOverheadFactor
	}
	return total
}

// permBuf is ChunkSeconds' scratch: the cluster permutation, pooled so a
// sweep cell does not allocate 4 bytes per cluster only to drop them.
type permBuf struct{ p []int32 }

var permPool = sync.Pool{New: func() any { return new(permBuf) }}

// maxPooledPerm is the largest scratch (in entries; 4 MiB) the pool takes
// back. A request sets num_clusters, so without the cap one oversized
// request would pin its buffer in the pool for the life of the process.
const maxPooledPerm = 1 << 20

// getPerm returns a scratch of length n; release it with putPerm.
func getPerm(n int) *permBuf {
	b := permPool.Get().(*permBuf)
	if cap(b.p) < n {
		b.p = make([]int32, n)
	}
	b.p = b.p[:n]
	return b
}

func putPerm(b *permBuf) {
	if cap(b.p) <= maxPooledPerm {
		permPool.Put(b)
	}
}

// ChunkSeconds computes the per-chunk CAP3 seconds for an n-way split: the
// workload's clusters are dealt to chunks round-robin over a seeded
// permutation (blast2cap3 assigns whole clusters to chunk files; the
// permutation models the arbitrary protein order of "alignments.out").
// For synthesized workloads the per-cluster seconds come from the memoized
// table — identical values accumulated in identical order, so results are
// bit-equal to the direct computation. The result is the only allocation:
// the permutation is drawn into pooled scratch.
func (c CostModel) ChunkSeconds(w Workload, n int) ([]float64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workflow: non-positive chunk count %d", n)
	}
	if len(w.Clusters) > math.MaxInt32 {
		return nil, fmt.Errorf("workflow: %d clusters exceed the supported %d", len(w.Clusters), math.MaxInt32)
	}
	buf := getPerm(len(w.Clusters))
	// Deferred: the dealing loops index caller-supplied data.
	defer putPerm(buf)
	perm := buf.p
	rng.New(w.Seed).Derive("chunk-assignment").PermInt32(perm)
	chunks := make([]float64, n)
	// k is i % n for the i-th dealt cluster, kept by wrap-around.
	k := 0
	if secs := c.clusterSecondsAll(w); secs != nil {
		for _, ci := range perm {
			chunks[k] += secs[ci]
			if k++; k == n {
				k = 0
			}
		}
	} else {
		for _, ci := range perm {
			chunks[k] += c.ClusterSeconds(w.Clusters[ci])
			if k++; k == n {
				k = 0
			}
		}
	}
	for i := range chunks {
		chunks[i] += c.TaskBase
	}
	return chunks, nil
}

// BuilderConfig configures DAX construction.
type BuilderConfig struct {
	// N is the number of cluster chunks (the paper's n: 10/100/300/500).
	N int
	// Workload supplies the dataset; leave Clusters empty for real-mode
	// workflows where runtimes are unknown (no runtime profiles set).
	Workload Workload
	// Cost converts workload to seconds (zero value → DefaultCostModel
	// when the workload has clusters).
	Cost CostModel
}

// ChunkJobID returns the executable job ID of the i-th (0-based) run_cap3
// chunk of an n-way split — the naming contract shared by the DAX builder
// and the plan cache's per-seed runtime patching (internal/core).
func ChunkJobID(i int) string { return fmt.Sprintf("run_cap3_%04d", i+1) }

// BuildDAX constructs the abstract blast2cap3 workflow for n chunks.
func BuildDAX(cfg BuilderConfig) (*dax.Workflow, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("workflow: cluster count n must be positive, got %d", cfg.N)
	}
	w := cfg.Workload
	cost := cfg.Cost
	if cost == (CostModel{}) {
		cost = DefaultCostModel()
	}
	simulated := len(w.Clusters) > 0

	wf := dax.New(fmt.Sprintf("blast2cap3-n%d", cfg.N))

	setRuntime := func(j *dax.Job, seconds float64) {
		if simulated {
			j.SetProfile("pegasus", "runtime", fmt.Sprintf("%.3f", seconds))
		}
	}

	lt := wf.NewJob("create_list_transcripts", TrListTranscripts).
		AddInput("transcripts.fasta", w.TranscriptBytes).
		AddOutput("transcripts_dict.txt", w.TranscriptBytes/8)
	lt.Args = []string{"transcripts.fasta", "transcripts_dict.txt"}
	setRuntime(lt, cost.scanSeconds(w.TranscriptBytes))

	la := wf.NewJob("create_list_alignments", TrListAlignments).
		AddInput("alignments.out", w.AlignmentBytes).
		AddOutput("alignments_list.txt", w.AlignmentBytes/16)
	la.Args = []string{"alignments.out", "alignments_list.txt"}
	setRuntime(la, cost.scanSeconds(w.AlignmentBytes))

	sp := wf.NewJob("split", TrSplit).
		AddInput("alignments.out", w.AlignmentBytes).
		AddInput("alignments_list.txt", w.AlignmentBytes/16)
	sp.Args = []string{"-n", fmt.Sprint(cfg.N), "alignments.out"}
	setRuntime(sp, cost.scanSeconds(w.AlignmentBytes)+cost.SplitPerChunk*float64(cfg.N))
	if err := wf.AddDependency("create_list_alignments", "split"); err != nil {
		return nil, err
	}

	var chunks []float64
	if simulated {
		var err error
		chunks, err = cost.ChunkSeconds(w, cfg.N)
		if err != nil {
			return nil, err
		}
	}

	chunkBytes := int64(0)
	if cfg.N > 0 {
		chunkBytes = w.AlignmentBytes / int64(cfg.N)
	}
	for i := 0; i < cfg.N; i++ {
		proteinLFN := fmt.Sprintf("protein_%d.txt", i+1)
		joinedLFN := fmt.Sprintf("joined_%d.fasta", i+1)
		sp.AddOutput(proteinLFN, chunkBytes)
		id := ChunkJobID(i)
		rc := wf.NewJob(id, TrRunCAP3).
			AddInput("transcripts_dict.txt", w.TranscriptBytes/8).
			AddInput(proteinLFN, chunkBytes).
			AddOutput(joinedLFN, chunkBytes/2)
		rc.Args = []string{"transcripts_dict.txt", proteinLFN, joinedLFN}
		if simulated {
			setRuntime(rc, chunks[i])
		}
		if err := wf.AddDependency("split", id); err != nil {
			return nil, err
		}
		if err := wf.AddDependency("create_list_transcripts", id); err != nil {
			return nil, err
		}
	}

	mg := wf.NewJob("merge", TrMerge).AddOutput("joined_all.fasta", w.TranscriptBytes/4)
	mg.Args = []string{"-n", fmt.Sprint(cfg.N), "joined_all.fasta"}
	setRuntime(mg, cost.TaskBase+cost.MergePerFile*float64(cfg.N))
	for i := 0; i < cfg.N; i++ {
		mg.AddInput(fmt.Sprintf("joined_%d.fasta", i+1), chunkBytes/2)
		if err := wf.AddDependency(ChunkJobID(i), "merge"); err != nil {
			return nil, err
		}
	}

	mnj := wf.NewJob("merge_not_joined", TrMergeNotJoined).
		AddInput("joined_all.fasta", w.TranscriptBytes/4).
		AddInput("transcripts_dict.txt", w.TranscriptBytes/8).
		AddOutput("final_assembly.fasta", w.TranscriptBytes/2)
	mnj.Args = []string{"joined_all.fasta", "transcripts_dict.txt", "final_assembly.fasta"}
	setRuntime(mnj, cost.scanSeconds(w.TranscriptBytes))
	if err := wf.AddDependency("merge", "merge_not_joined"); err != nil {
		return nil, err
	}
	if err := wf.AddDependency("create_list_transcripts", "merge_not_joined"); err != nil {
		return nil, err
	}

	if err := wf.Validate(); err != nil {
		return nil, err
	}
	return wf, nil
}

// BuildSerialDAX constructs the one-job workflow representing the original
// serial blast2cap3 (the paper's baseline).
func BuildSerialDAX(w Workload, cost CostModel) (*dax.Workflow, error) {
	if cost == (CostModel{}) {
		cost = DefaultCostModel()
	}
	wf := dax.New("blast2cap3-serial")
	j := wf.NewJob("blast2cap3_serial", TrSerial).
		AddInput("transcripts.fasta", w.TranscriptBytes).
		AddInput("alignments.out", w.AlignmentBytes).
		AddOutput("final_assembly.fasta", w.TranscriptBytes/2)
	j.Args = []string{"transcripts.fasta", "alignments.out"}
	if len(w.Clusters) > 0 {
		j.SetProfile("pegasus", "runtime", fmt.Sprintf("%.3f", cost.SerialSeconds(w)))
	}
	if err := wf.Validate(); err != nil {
		return nil, err
	}
	return wf, nil
}
