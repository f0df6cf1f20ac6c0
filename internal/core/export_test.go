package core

import (
	"pegflow/internal/sim/platform"
	"pegflow/internal/workflow"
)

// reducedMembers gives member i the tests' ensemble workload seeded seed+i:
// a reduced-scale cousin of the paper workload (same rank-size law, ~20x
// fewer clusters, the parameters of `pegflow ensemble`), so an 8-member
// ensemble stays cheap to simulate while keeping the heavy-tailed chunk-work
// distribution.
func reducedMembers(seed uint64) func(int) workflow.Workload {
	return func(i int) workflow.Workload {
		return workflow.CustomWorkload(workflow.WorkloadParams{
			NumClusters: 2000, MaxClusterSize: 200, SizeExponent: 0.5, MeanReadLen: 1200,
		}, seed+uint64(i))
	}
}

// over is an ensemble of reducedMembers planned across every site of the
// world of sites, in order.
func over(e *EnsembleExperiment, sites []workflow.Site) (*EnsembleExperiment, error) {
	world, err := workflow.NewWorld(sites)
	if err != nil {
		return nil, err
	}
	e.World, e.MemberWorkload = world, reducedMembers(e.Seed)
	for _, s := range sites {
		e.Sites = append(e.Sites, s.Platform.Name)
	}
	return e, nil
}

// PaperEnsemble is the tests' ensemble over the paper's two-site world
// (Sandhills + OSG).
func PaperEnsemble(seed uint64, workflows, n int, policy string) (*EnsembleExperiment, error) {
	sites, err := workflow.PresetSites(platforms)
	if err != nil {
		return nil, err
	}
	return over(&EnsembleExperiment{Seed: seed, Workflows: workflows, N: n, Policy: policy, RetryLimit: 5}, sites)
}

// HeteroBenchEnsemble is the tests' two-site fixture where the cost policies
// split work by runtime: a "fast" site with preinstalled software and a
// "slow" site whose nodes run 3x slower and must download a 150 MB stack per
// job (the sites of examples/scenarios/figures/ensemble.json).
func HeteroBenchEnsemble(seed uint64, workflows, n int, policy string) (*EnsembleExperiment, error) {
	return over(&EnsembleExperiment{Seed: seed, Workflows: workflows, N: n, Policy: policy, RetryLimit: 3}, []workflow.Site{
		{
			Platform: platform.Config{
				Name: "fast", Slots: 32, SubmitInterval: 0.2,
				DispatchMean: 5, DispatchCV: 0.3,
				SpeedFactor: 1.0, SpeedJitter: 0.05,
			},
			StageInMBps: 200, Preinstalled: true,
		},
		{
			Platform: platform.Config{
				Name: "slow", Slots: 32, SubmitInterval: 0.3,
				DispatchMean: 60, DispatchCV: 0.8,
				SpeedFactor: 3.0, SpeedJitter: 0.2,
				SetupMean: 120, SetupCV: 0.5, SetupBytesPerSec: 5e6,
			},
			StageInMBps: 20, InstallBytes: 150 << 20,
		},
	})
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
