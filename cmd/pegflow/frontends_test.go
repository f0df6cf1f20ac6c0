package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pegflow/internal/workflow"
)

// TestEveryFrontEndKnowsEveryPreset: the built-in sites are one table, so
// each of its rows is a site to plan -site, run -site, ensemble -sites and a
// scenario's {"preset": …}, and a name that is not in it is refused by all
// four with the same list of the names that are.
func TestEveryFrontEndKnowsEveryPreset(t *testing.T) {
	dax := daxFixture(t)
	scenarioFile := func(preset string) string {
		path := filepath.Join(t.TempDir(), "preset.json")
		doc := fmt.Sprintf(`{"version": 1, "name": "preset", "sites": [{"preset": %q}],
  "workload": {"preset": "paper", "n": [8]}}`, preset)
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	frontEnds := []struct {
		name string
		run  func(site string) error
	}{
		{"plan -site", func(site string) error {
			_, err := runQuiet(t, cmdPlan, []string{"-dax", dax, "-site", site})
			return err
		}},
		{"run -site", func(site string) error {
			_, err := runQuiet(t, cmdRun, []string{"-dax", dax, "-site", site})
			return err
		}},
		{"ensemble -sites", func(site string) error {
			_, err := runQuiet(t, cmdEnsemble, []string{"-workflows", "2", "-n", "4", "-sites", site})
			return err
		}},
		{"scenario preset", func(site string) error {
			_, err := runQuiet(t, cmdScenarioRun, []string{scenarioFile(site)})
			return err
		}},
	}
	names := workflow.PresetNames()
	if len(names) == 0 {
		t.Fatal("the preset table is empty")
	}
	known := "(have " + strings.Join(names, ", ") + ")"
	for _, fe := range frontEnds {
		for _, name := range names {
			if err := fe.run(name); err != nil {
				t.Errorf("%s refuses preset %q: %v", fe.name, name, err)
			}
		}
		err := fe.run("condor")
		if err == nil {
			t.Errorf("%s accepts the unknown site \"condor\"", fe.name)
		} else if !strings.Contains(err.Error(), `"condor"`) || !strings.Contains(err.Error(), known) {
			t.Errorf("%s: error %q does not name \"condor\" and list %s", fe.name, err, known)
		}
	}
}
