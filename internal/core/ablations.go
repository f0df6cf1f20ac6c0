package core

import (
	"fmt"

	"pegflow/internal/catalog"
	"pegflow/internal/planner"
	"pegflow/internal/workflow"
)

// Variant tweaks one mechanism of the standard experiment, isolating the
// design choices DESIGN.md calls out (per-experiment index A1, A2, A4; A3,
// task clustering, is RunClustered). A variant edits what the one run path
// is handed — the catalogs, the platform model, the workload — and nothing
// about how it plans or runs.
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
	cfg, err := e.platformConfig(platformName, n)
	if err != nil {
		return nil, err
	}
	if v.DisablePreemption {
		cfg.EvictionRate = 0
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
	cats, key, err := e.catalogs(platformName)
	if err != nil {
		return nil, err
	}
	if v.PreinstallOSG {
		// The edited catalog fingerprints to its own plan-cache key.
		cats.Transformations, key = preinstalledEverywhere(cats, platformName), ""
	}
	return e.runOnSite(cfg, n, w, cats, key, planner.ClusterOptions{})
}

// preinstalledEverywhere rebuilds the transformation catalog with every
// entry at the given site marked installed.
func preinstalledEverywhere(cats planner.Catalogs, site string) *catalog.TransformationCatalog {
	out := catalog.NewTransformationCatalog()
	for _, name := range cats.Transformations.Names() {
		for _, s := range cats.Sites.Names() {
			t, err := cats.Transformations.Lookup(name, s)
			if err != nil {
				continue
			}
			cp := *t
			if s == site {
				cp.Installed = true
				cp.InstallBytes = 0
			}
			if err := out.Add(&cp); err != nil {
				panic(fmt.Sprintf("core: rebuilding catalog: %v", err))
			}
		}
	}
	return out
}
