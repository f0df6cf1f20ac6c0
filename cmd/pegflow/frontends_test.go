package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pegflow/internal/core"
	"pegflow/internal/ensemble"
	"pegflow/internal/planner"
	"pegflow/internal/stats"
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

// TestEveryFrontEndAgreesOnStageIn: whether a plan carries stage-in jobs is
// ensemble.StageIn of its site set, whichever front end built it. Four front
// ends plan the same workflow — the paper workload at n = 8, seed 42 — on
// the same preset sites under the same policy, and must plan the same number
// of stage_in_* jobs: none on one site, failover or not, some on two. The
// plan front ends and the ensemble member expose their jobs; a scenario row
// reports only its job count, so there the stage-in jobs are the jobs beyond
// the abstract workflow's.
func TestEveryFrontEndAgreesOnStageIn(t *testing.T) {
	const n, seed = 8, 42
	dax := daxFixture(t)
	abstract, err := loadDAX(dax)
	if err != nil {
		t.Fatal(err)
	}
	// planned parses args as `pegflow run` does (plan's flags plus
	// -failover) and plans as plan and run both do.
	planned := func(args ...string) (int, error) {
		fs, o := runFlags()
		if err := fs.Parse(append([]string{"-dax", dax}, args...)); err != nil {
			return 0, err
		}
		spec, _, err := o.plan(o.failover)
		if err != nil {
			return 0, err
		}
		count := 0
		for _, j := range spec.Plan.Jobs() {
			if j.Transformation == planner.StageInTransformation {
				count++
			}
		}
		return count, nil
	}
	frontEnds := []struct {
		name string
		// stageIns returns the stage-in jobs of the member planned across
		// sites; ok is false where the front end cannot express the set.
		stageIns func(sites []string, failover bool) (count int, ok bool, err error)
	}{
		{"plan -site", func(sites []string, failover bool) (int, bool, error) {
			if len(sites) != 1 {
				return 0, false, nil
			}
			count, err := planned(fmt.Sprintf("-failover=%t", failover), "-site", sites[0])
			return count, true, err
		}},
		{"plan -sites", func(sites []string, failover bool) (int, bool, error) {
			count, err := planned(fmt.Sprintf("-failover=%t", failover), "-sites", strings.Join(sites, ","))
			return count, true, err
		}},
		{"ensemble member", func(sites []string, failover bool) (int, bool, error) {
			declared, err := workflow.PresetSites(sites)
			if err != nil {
				return 0, true, err
			}
			world, err := workflow.NewWorld(declared)
			if err != nil {
				return 0, true, err
			}
			exp := &core.EnsembleExperiment{
				Seed: seed, Workflows: 1, N: n, Policy: planner.PolicyDataAware,
				World: world, Sites: sites, RetryLimit: 5, Failover: failover,
				MemberWorkload: func(int) workflow.Workload { return workflow.PaperWorkload(seed) },
			}
			res, err := exp.Run()
			if err != nil {
				return 0, true, err
			}
			ran := map[string]bool{}
			for _, r := range res.Workflows[0].Result.Log.Successes() {
				if r.Transformation == planner.StageInTransformation {
					ran[r.JobID] = true
				}
			}
			return len(ran), true, nil
		}},
		{"scenario cell", func(sites []string, failover bool) (int, bool, error) {
			if len(sites) == 1 && failover {
				return 0, false, nil // a document refuses failover on one site
			}
			presets := make([]string, len(sites))
			for i, s := range sites {
				presets[i] = fmt.Sprintf(`{"preset": %q}`, s)
			}
			set, _ := json.Marshal(sites)
			policies := "" // a one-site set takes no site policy
			if len(sites) > 1 {
				policies = fmt.Sprintf(`"policies": {"site": [%q], "failover": [%t]},`, planner.PolicyDataAware, failover)
			}
			doc := fmt.Sprintf(`{"version": 1, "name": "stage-in", "sites": [%s], "site_sets": [%s], %s
  "workload": {"preset": "paper", "n": [%d], "seeds": [%d]}, "outputs": {"fields": ["jobs"]}}`,
				strings.Join(presets, ", "), set, policies, n, seed)
			path := filepath.Join(t.TempDir(), "stage-in.json")
			if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
				return 0, true, err
			}
			out, err := runQuiet(t, cmdScenarioRun, []string{path})
			if err != nil {
				return 0, true, err
			}
			var row struct{ Jobs int }
			if err := json.Unmarshal([]byte(strings.Split(out, "\n")[1]), &row); err != nil {
				return 0, true, err
			}
			return row.Jobs - abstract.Len(), true, nil
		}},
	}
	for _, tc := range []struct {
		sites    []string
		failover bool
	}{
		{[]string{"osg"}, false},
		{[]string{"osg"}, true},
		{[]string{"sandhills", "osg"}, false},
		{[]string{"sandhills", "osg"}, true},
	} {
		want := ensemble.StageIn(tc.sites)
		first, firstName := -1, ""
		for _, fe := range frontEnds {
			count, ok, err := fe.stageIns(tc.sites, tc.failover)
			if err != nil {
				t.Fatalf("%s on %v (failover %v): %v", fe.name, tc.sites, tc.failover, err)
			}
			if !ok {
				continue
			}
			t.Logf("%s on %v (failover %v): %d stage-in jobs", fe.name, tc.sites, tc.failover, count)
			if (count > 0) != want {
				t.Errorf("%s on %v (failover %v): %d stage-in jobs, but the rule says stage-in %v",
					fe.name, tc.sites, tc.failover, count, want)
			}
			if first < 0 {
				first, firstName = count, fe.name
			} else if count != first {
				t.Errorf("on %v (failover %v): %s plans %d stage-in jobs, %s %d",
					tc.sites, tc.failover, fe.name, count, firstName, first)
			}
		}
	}
}

// TestEnsembleFrontEndsAgree: `pegflow ensemble` and the scenario document
// declaring the same ensemble run one simulation — the same member
// workloads, plans and platform seed — so they report the same makespan,
// mean workflow makespan, retries, evictions and failovers, plain and with
// clustering and failover on.
func TestEnsembleFrontEndsAgree(t *testing.T) {
	const workflows, n, seed = 6, 8, 42
	type totals struct {
		Makespan             float64
		MeanWorkflowMakespan float64
		Retries              int
		Evictions            int
		Failovers            int
	}
	for _, tc := range []struct {
		name     string
		flags    []string
		policies string
	}{
		{"plain", nil, `{"site": ["data-aware"]}`},
		{"cluster4-failover", []string{"-cluster", "4", "-failover"},
			`{"site": ["data-aware"], "cluster": [{"max_tasks": 4}], "failover": [true]}`},
	} {
		args := append([]string{
			"-workflows", fmt.Sprint(workflows), "-n", fmt.Sprint(n), "-sites", "sandhills,osg",
			"-policy", planner.PolicyDataAware, "-seed", fmt.Sprint(seed), "-json",
		}, tc.flags...)
		var report stats.EnsembleReport
		if err := json.Unmarshal([]byte(captureStdout(t, cmdEnsemble, args)), &report); err != nil {
			t.Fatal(err)
		}
		cli := totals{report.Makespan, report.MeanWorkflowMakespan,
			report.TotalRetries, report.TotalEvictions, report.TotalFailovers}

		// The CLI's member workload, written out.
		doc := fmt.Sprintf(`{"version": 1, "name": "ensemble-%s",
  "sites": [{"preset": "sandhills"}, {"preset": "osg"}], "policies": %s,
  "workload": {"params": {"num_clusters": 2000, "max_cluster_size": 200, "size_exponent": 0.5, "mean_read_len": 1200},
               "n": [%d], "seeds": [%d]},
  "ensemble": {"workflows": %d}, "retries": 5}`, tc.name, tc.policies, n, seed, workflows)
		path := filepath.Join(t.TempDir(), "ensemble.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		var row struct {
			Makespan             float64 `json:"makespan_s"`
			MeanWorkflowMakespan float64 `json:"mean_workflow_makespan_s"`
			Retries, Evictions   int
			Failovers            int
		}
		out := captureStdout(t, cmdScenarioRun, []string{path})
		if err := json.Unmarshal([]byte(strings.Split(out, "\n")[1]), &row); err != nil {
			t.Fatal(err)
		}
		cell := totals{row.Makespan, row.MeanWorkflowMakespan, row.Retries, row.Evictions, row.Failovers}
		t.Logf("%s: %+v", tc.name, cli)
		if cli != cell {
			t.Errorf("%s: pegflow ensemble reports %+v, the scenario cell %+v", tc.name, cli, cell)
		}
	}
}

// TestEveryFrontEndRefusesNegativeRetries: `pegflow run -retries -1` and
// `pegflow ensemble -retries -1` are refused, as a document's "retries": -1
// is, instead of running with no retries; ensemble's document refuses it
// with the document's own message.
func TestEveryFrontEndRefusesNegativeRetries(t *testing.T) {
	dax := daxFixture(t)
	for _, fe := range []struct {
		name string
		cmd  func([]string) error
		args []string
		want string
	}{
		{"run", cmdRun, []string{"-dax", dax, "-site", "osg", "-retries", "-1"}, "negative retry limit"},
		{"ensemble", cmdEnsemble, []string{"-workflows", "2", "-n", "4", "-retries", "-1"}, "retries: must be non-negative"},
	} {
		if _, err := runQuiet(t, fe.cmd, fe.args); err == nil || !strings.Contains(err.Error(), fe.want) {
			t.Errorf("pegflow %s -retries -1: error %v, want %q", fe.name, err, fe.want)
		}
	}
}
