package core

import "pegflow/internal/workflow"

// PaperEnsemble is the tests' ensemble over the paper's two-site world
// (Sandhills + OSG).
func PaperEnsemble(seed uint64, workflows, n int, policy string) (*EnsembleExperiment, error) {
	sites, err := workflow.PresetSites(Platforms)
	if err != nil {
		return nil, err
	}
	e := &EnsembleExperiment{Seed: seed, Workflows: workflows, N: n, Policy: policy, RetryLimit: 5}
	return e, e.Over(sites)
}

// SetChunkCacheBytes replaces the chunk-seconds cache with an empty one
// bounded by maxBytes and returns the call that puts the original back. It
// exists for tests outside the package that need every lookup to evict; no
// non-test code can reach it. Not safe to call while cells are running.
func SetChunkCacheBytes(maxBytes int64) (restore func()) {
	old := chunkCache
	chunkCache = newChunkCache(maxBytes)
	return func() { chunkCache = old }
}
