package core

import (
	"pegflow/internal/planner"
	"pegflow/internal/workflow"
)

// Variant tweaks one mechanism of the standard experiment, isolating the
// design choices DESIGN.md calls out (per-experiment index A1, A2, A4; A3,
// task clustering, is RunClustered). A variant edits what the one run path
// is handed — the declared site, the workload — and nothing about how it
// plans or runs.
type Variant struct {
	// PreinstallOSG marks every transformation as installed at the run's
	// site (e.g. software distributed via a shared filesystem) — ablation
	// A1 on OSG, and the paper's stated future work ("setting the proper
	// software configuration on the OSG resources for less time").
	PreinstallOSG bool
	// DisablePreemption turns off the OSG eviction hazard (A2).
	DisablePreemption bool
	// SizeExponent overrides the workload's cluster-size rank exponent
	// (A4); 0 keeps the paper workload.
	SizeExponent float64
}

// RunVariant executes the blast2cap3 workflow on the named platform with
// the given variant applied.
func (e *Experiment) RunVariant(platformName string, n int, v Variant) (*RunResult, error) {
	// The edited declaration's world fingerprints to its own plan-cache key.
	sites := workflow.PaperSites(0, 0)
	for i := range sites {
		if s := &sites[i]; s.Platform.Name == platformName {
			if v.DisablePreemption {
				s.Platform.EvictionRate = 0
			}
			if v.PreinstallOSG {
				s.Preinstalled = true
			}
		}
	}
	world, err := workflow.NewWorld(sites)
	if err != nil {
		return nil, err
	}
	// A SizeExponent override plans from its own master via w.Params.
	w := e.Workload
	if v.SizeExponent > 0 {
		w = workflow.CustomWorkload(workflow.WorkloadParams{
			NumClusters:    40000,
			MaxClusterSize: 600,
			SizeExponent:   v.SizeExponent,
			MeanReadLen:    1500,
		}, e.Seed)
	}
	return e.runOnSite(world, platformName, n, w, planner.ClusterOptions{})
}
