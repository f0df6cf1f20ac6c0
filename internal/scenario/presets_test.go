package scenario

import (
	"testing"

	"pegflow/internal/sim/platform"
	"pegflow/internal/workflow"
)

// TestPresetWorldsAgree: the built-in sites are declared once, so the world
// the CLI plans on (workflow.PaperCatalogs) and the world a document
// naming the three bare presets compiles to have the same planning
// fingerprint, and what the catalog tells the planner about a preset — its
// slots and speed — is what the platform model that runs the jobs has.
func TestPresetWorldsAgree(t *testing.T) {
	names := workflow.PresetNames()
	cats, err := workflow.PaperCatalogs(workflow.Workload{}, 300, 600)
	if err != nil {
		t.Fatal(err)
	}
	c := compileSource(t, "presets.json", []byte(`{
  "version": 1, "name": "presets",
  "sites": [{"preset": "sandhills"}, {"preset": "osg"}, {"preset": "cloud"}],
  "workload": {"preset": "paper", "n": [10]}
}`))
	if got, want := c.world.Key(names), cats.Fingerprint(names); got != want {
		t.Errorf("a document of bare presets plans on\n%s\nthe paper catalogs on\n%s", got, want)
	}
	cfgs, err := c.world.Configs(names, 0)
	if err != nil {
		t.Fatal(err)
	}

	models := map[string]platform.Config{
		"sandhills": platform.Sandhills(0),
		"osg":       platform.OSG(0),
		"cloud":     platform.Cloud(0),
	}
	for i, name := range names {
		site, err := cats.Sites.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		preset, err := workflow.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := cfgs[i]
		if cfg != preset.Config(0) {
			t.Errorf("%s: a bare preset in a document runs on %+v, the table's %+v", name, cfg, preset.Config(0))
		}
		if site.Slots != cfg.Slots || site.SpeedFactor != cfg.SpeedFactor {
			t.Errorf("%s: catalog says %d slots at speed %v, the platform model %d at %v",
				name, site.Slots, site.SpeedFactor, cfg.Slots, cfg.SpeedFactor)
		}
		// The table resizes the Sandhills model to the paper's allocation and
		// changes nothing else about any model.
		model := models[name]
		if name == "sandhills" {
			model.Slots = cfg.Slots
		}
		if cfg != model {
			t.Errorf("%s: the table's platform %+v is not platform's model %+v", name, cfg, model)
		}
	}
}
