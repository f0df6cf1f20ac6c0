package analysis

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// escapemodDir is the standalone fixture module (its own go.mod, so the
// repo's ./... never sees it).
func escapemodDir(t *testing.T) string {
	t.Helper()
	return filepath.Join(moduleRoot(t), "internal", "analysis", "testdata", "escapemod")
}

func runEscapeGate(t *testing.T, dir string, gate *EscapeGate, patterns ...string) []Finding {
	t.Helper()
	prog, err := Load(dir, patterns...)
	if err != nil {
		t.Fatal(err)
	}
	suite := &Suite{Analyzers: []Analyzer{gate}}
	findings, err := suite.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

// flaggedFunc returns the guarded function an escapegate finding names in
// its message ("heap escape in guarded kernel function <name>: ...").
func flaggedFunc(f Finding) string {
	rest, _ := strings.CutPrefix(f.Message, "heap escape in guarded kernel function ")
	name, _, _ := strings.Cut(rest, ":")
	return name
}

// TestEscapeGateFixture drives the toy kernel module: the clean function
// and the panic-path-only function pass, the deliberate allocation fails.
func TestEscapeGateFixture(t *testing.T) {
	dir := escapemodDir(t)

	t.Run("clean and panic-path functions pass", func(t *testing.T) {
		gate := &EscapeGate{Guards: []EscapeGuard{{
			Pkg: "escapemod/kernel", Funcs: []string{"Sim.Clean", "Sim.PanicsOnly"},
		}}}
		if fs := runEscapeGate(t, dir, gate, "./..."); len(fs) != 0 {
			t.Fatalf("clean guards produced findings: %v", fs)
		}
	})

	t.Run("typed events and the func adapter pass, growth out of line", func(t *testing.T) {
		gate := &EscapeGate{Guards: []EscapeGuard{{
			Pkg:   "escapemod/kernel",
			Funcs: []string{"Queue.Schedule", "Queue.ScheduleFunc", "funcHandler.Handle"},
		}}}
		if fs := runEscapeGate(t, dir, gate, "./..."); len(fs) != 0 {
			t.Fatalf("typed-event guards produced findings: %v", fs)
		}
	})

	t.Run("inline growth and interface boxing are flagged", func(t *testing.T) {
		gate := &EscapeGate{Guards: []EscapeGuard{{
			Pkg:   "escapemod/kernel",
			Funcs: []string{"Queue.Schedule", "Queue.ScheduleInlineGrowth", "Queue.Boxed"},
		}}}
		flagged := map[string]bool{}
		for _, f := range runEscapeGate(t, dir, gate, "./...") {
			flagged[flaggedFunc(f)] = true
		}
		if !flagged["Queue.ScheduleInlineGrowth"] || !flagged["Queue.Boxed"] || flagged["Queue.Schedule"] {
			t.Fatalf("flagged %v, want exactly ScheduleInlineGrowth and Boxed", flagged)
		}
	})

	t.Run("deliberate allocation is flagged", func(t *testing.T) {
		gate := &EscapeGate{Guards: []EscapeGuard{{
			Pkg: "escapemod/kernel", Funcs: []string{"Sim.Clean", "Sim.Dirty"},
		}}}
		fs := runEscapeGate(t, dir, gate, "./...")
		if len(fs) == 0 {
			t.Fatal("escapegate did not flag Sim.Dirty's new(int64) escape")
		}
		for _, f := range fs {
			if flaggedFunc(f) != "Sim.Dirty" {
				t.Errorf("finding outside Sim.Dirty: %v", f)
			}
			if !strings.Contains(f.Message, "escapes to heap") {
				t.Errorf("finding does not carry the compiler diagnostic: %v", f)
			}
		}
	})

	t.Run("stale guard list errors instead of guarding nothing", func(t *testing.T) {
		gate := &EscapeGate{Guards: []EscapeGuard{{
			Pkg: "escapemod/kernel", Funcs: []string{"Sim.Renamed"},
		}}}
		prog, err := Load(dir, "./...")
		if err != nil {
			t.Fatal(err)
		}
		err = gate.Run(prog, func(token.Position, string) {})
		if err == nil || !strings.Contains(err.Error(), "Sim.Renamed") {
			t.Fatalf("want stale-guard error naming Sim.Renamed, got %v", err)
		}
	})
}

// TestEscapeGateCatchesInjectedKernelAllocation is the acceptance demo:
// copy the real DES kernel into a scratch module, inject one allocation
// into the guarded Step hot path, and assert the gate fails. This proves
// the production guard list would catch a real regression, not just the
// toy fixture.
func TestEscapeGateCatchesInjectedKernelAllocation(t *testing.T) {
	root := moduleRoot(t)
	src := filepath.Join(root, "internal", "sim", "des")
	tmp := t.TempDir()
	if err := os.WriteFile(filepath.Join(tmp, "go.mod"), []byte("module desmod\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	injected := false
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		if name == "des.go" {
			// One deliberate allocation on the fire path of Step.
			const anchor = "s.processed++"
			if !strings.Contains(text, anchor) {
				t.Fatalf("injection anchor %q missing from des.go; update the test", anchor)
			}
			text = strings.Replace(text, anchor,
				anchor+"\n\tescapeSink = append(escapeSink, new(uint64)) // injected regression\n\t_ = escapeSink",
				1)
			text += "\n// escapeSink forces the injected allocation to escape.\nvar escapeSink []*uint64\n"
			injected = true
		}
		if err := os.WriteFile(filepath.Join(tmp, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if !injected {
		t.Fatal("des.go not found in kernel copy")
	}

	gate := &EscapeGate{Guards: []EscapeGuard{{Pkg: "desmod", Funcs: []string{"Simulation.Step"}}}}
	fs := runEscapeGate(t, tmp, gate, ".")
	if len(fs) == 0 {
		t.Fatal("escapegate passed a kernel with an injected allocation in Simulation.Step")
	}
	for _, f := range fs {
		if flaggedFunc(f) != "Simulation.Step" {
			t.Errorf("finding attributed outside Step: %v", f)
		}
	}

	// Control: the pristine kernel under the same guard is clean.
	clean := &EscapeGate{Guards: []EscapeGuard{{
		Pkg: "pegflow/internal/sim/des", Funcs: []string{"Simulation.Step"},
	}}}
	if fs := runEscapeGate(t, root, clean, "./internal/sim/des"); len(fs) != 0 {
		t.Fatalf("pristine kernel flagged: %v", fs)
	}
}
