package main

import (
	"path/filepath"
	"testing"
)

// scenarioPath resolves a checked-in example scenario.
func scenarioPath(name string) string {
	return filepath.Join("..", "..", "examples", "scenarios", name)
}

// TestGoldenScenarioPaper is the acceptance property: the paper
// reproduction scenario's NDJSON output is byte-identical across worker
// counts, pinned by a golden fixture.
func TestGoldenScenarioPaper(t *testing.T) {
	path := scenarioPath("paper.json")
	one := captureStdout(t, cmdScenarioRun, []string{"-workers", "1", path})
	checkGolden(t, "scenario_paper", one)
	eight := captureStdout(t, cmdScenarioRun, []string{"-workers", "8", path})
	if eight != one {
		t.Errorf("scenario run output depends on -workers:\n--- workers=1 ---\n%s--- workers=8 ---\n%s", one, eight)
	}
}

func TestGoldenScenarioHeteroEnsemble(t *testing.T) {
	path := scenarioPath("hetero-ensemble.json")
	one := captureStdout(t, cmdScenarioRun, []string{"-workers", "1", path})
	checkGolden(t, "scenario_hetero_ensemble", one)
	if many := captureStdout(t, cmdScenarioRun, []string{"-workers", "8", path}); many != one {
		t.Error("hetero-ensemble scenario output depends on -workers")
	}
}

func TestGoldenScenarioFailoverStress(t *testing.T) {
	path := scenarioPath("failover-stress.json")
	one := captureStdout(t, cmdScenarioRun, []string{"-workers", "1", path})
	checkGolden(t, "scenario_failover_stress", one)
	if many := captureStdout(t, cmdScenarioRun, []string{"-workers", "8", path}); many != one {
		t.Error("failover-stress scenario output depends on -workers")
	}
}

// TestGoldenScenarioSiteChurn is the fault-injection acceptance test:
// outage + recovery, eviction storm, dispatch blackout and capacity
// shrink/grow all scheduled as deterministic DES events, with retry
// backoff jitter from the run's seeded RNG — so the NDJSON stream stays
// byte-identical across worker counts and is pinned by a golden fixture.
func TestGoldenScenarioSiteChurn(t *testing.T) {
	path := scenarioPath("site-churn.json")
	one := captureStdout(t, cmdScenarioRun, []string{"-workers", "1", path})
	checkGolden(t, "scenario_site_churn", one)
	if many := captureStdout(t, cmdScenarioRun, []string{"-workers", "8", path}); many != one {
		t.Errorf("site-churn scenario output depends on -workers:\n--- workers=1 ---\n%s--- workers=8 ---\n%s", one, many)
	}
}

// TestGoldenScenarioAggregateScale pins the memory-flat big-run mode end
// to end: a fine-decomposition OSG cell with outputs.aggregate folds
// every record into accumulators and sketches, and the NDJSON stream —
// sketch-backed percentiles included — is byte-identical across worker
// counts and pinned by a golden fixture.
func TestGoldenScenarioAggregateScale(t *testing.T) {
	path := scenarioPath("aggregate-scale.json")
	one := captureStdout(t, cmdScenarioRun, []string{"-workers", "1", path})
	checkGolden(t, "scenario_aggregate_scale", one)
	if many := captureStdout(t, cmdScenarioRun, []string{"-workers", "8", path}); many != one {
		t.Errorf("aggregate-scale scenario output depends on -workers:\n--- workers=1 ---\n%s--- workers=8 ---\n%s", one, many)
	}
}

// TestGoldenScenarioCheck pins `scenario check` on paper.json and runs it on
// every other checked-in document, the figure documents under figures/
// included, so one the compiler refuses fails here even before it has a
// golden of its own.
func TestGoldenScenarioCheck(t *testing.T) {
	docs, err := filepath.Glob(scenarioPath("*.json"))
	if err != nil || len(docs) == 0 {
		t.Fatalf("no example scenarios (%v)", err)
	}
	figures, err := filepath.Glob(scenarioPath("figures/*.json"))
	if err != nil || len(figures) == 0 {
		t.Fatalf("no figure documents (%v)", err)
	}
	docs = append(docs, figures...)
	for _, path := range docs {
		out := captureStdout(t, cmdScenarioCheck, []string{path})
		if filepath.Base(path) == "paper.json" {
			checkGolden(t, "scenario_check_paper", out)
		}
	}
}
