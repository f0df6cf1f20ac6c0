package core

import (
	"fmt"

	"pegflow/internal/catalog"
	"pegflow/internal/engine"
	"pegflow/internal/planner"
	"pegflow/internal/sim/platform"
	"pegflow/internal/workflow"
)

// Variant tweaks one mechanism of the standard experiment, isolating the
// design choices DESIGN.md calls out (per-experiment index A1-A4).
type Variant struct {
	// PreinstallOSG marks every transformation as installed at OSG
	// (e.g. software distributed via a shared filesystem) — ablation
	// A1, and the paper's stated future work ("setting the proper
	// software configuration on the OSG resources for less time").
	PreinstallOSG bool
	// DisablePreemption turns off the OSG eviction hazard (A2).
	DisablePreemption bool
	// ClusterSize enables Pegasus horizontal task clustering of
	// run_cap3 jobs with the given tasks-per-job factor (A3).
	ClusterSize int
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

	w := e.Workload
	if v.SizeExponent > 0 {
		w = workflow.CustomWorkload(workflow.WorkloadParams{
			NumClusters:    40000,
			MaxClusterSize: 600,
			SizeExponent:   v.SizeExponent,
			MeanReadLen:    1500,
		}, e.Seed)
	}
	if !v.PreinstallOSG && v.ClusterSize <= 1 {
		// Catalog- and clustering-neutral variants are ordinary runs; a
		// SizeExponent override plans from its own master via w.Params.
		return e.runOnSite(cfg, n, w, planner.ClusterOptions{})
	}

	// An edited catalog or abstract-level clustering changes what is
	// planned, not how it runs: plan directly and run on a bare engine.
	abstract, err := workflow.BuildDAX(workflow.BuilderConfig{N: n, Workload: w})
	if err != nil {
		return nil, err
	}
	cats, err := workflow.PaperCatalogs(w, e.SandhillsSlots, e.OSGSlots)
	if err != nil {
		return nil, err
	}
	if v.PreinstallOSG {
		cats.Transformations = preinstalledEverywhere(cats.Transformations, platformName)
	}
	opts := planner.Options{Site: platformName}
	if v.ClusterSize > 1 {
		opts.ClusterSize = v.ClusterSize
		opts.ClusterTransformations = []string{workflow.TrRunCAP3}
	}
	plan, err := planner.New(abstract, cats, opts)
	if err != nil {
		return nil, err
	}
	ex, err := platform.NewExecutor(cfg)
	if err != nil {
		return nil, err
	}
	ex.Reserve(plan.Graph.Len())
	res, err := engine.Run(plan, ex, engine.Options{RetryLimit: e.RetryLimit})
	if err != nil {
		return nil, err
	}
	return newRunResult(platformName, n, res), nil
}

// preinstalledEverywhere rebuilds a transformation catalog with every
// entry at the given site marked installed.
func preinstalledEverywhere(tc *catalog.TransformationCatalog, site string) *catalog.TransformationCatalog {
	out := catalog.NewTransformationCatalog()
	for _, name := range tc.Names() {
		for _, s := range []string{"sandhills", "osg"} {
			t, err := tc.Lookup(name, s)
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
