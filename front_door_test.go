package pegflow_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOneFrontDoor: every command reaches the simulator through a scenario
// document (or, for pegflow plan and run, the ensemble package), never
// through core's experiments beside them, so no non-test Go file under cmd/
// imports internal/core. And core is a view of the paper's document
// (checkCoreIsAView).
func TestOneFrontDoor(t *testing.T) {
	checkCoreIsAView(t)
	fset, checked := token.NewFileSet(), 0
	err := filepath.WalkDir("cmd", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		checked++
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "pegflow/internal/core" {
				t.Errorf("%s imports %s", fset.Position(imp.Pos()), p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no non-test Go file found under cmd/")
	}
}

// checkCoreIsAView: core runs the paper's grid through the scenario
// document and nothing else. No non-test file in internal/core
// imports the packages a run path is built from (ensemble, planner,
// platform, pool), and it names engine only for the type of
// RunResult.Result. The dependency points one way: no non-test file in
// internal/scenario or internal/server imports internal/core.
func checkCoreIsAView(t *testing.T) {
	t.Helper()
	banned := map[string]bool{
		"pegflow/internal/ensemble":     true,
		"pegflow/internal/planner":      true,
		"pegflow/internal/sim/platform": true,
		"pegflow/internal/pool":         true,
	}
	fset := token.NewFileSet()
	files := func(dir string) []*ast.File {
		t.Helper()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		var out []*ast.File
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				out = append(out, f)
			}
		}
		if len(out) == 0 {
			t.Fatalf("no non-test Go file in %s", dir)
		}
		return out
	}
	for _, f := range files(filepath.Join("internal", "core")) {
		engineName := ""
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if banned[p] {
				t.Errorf("%s imports %s", fset.Position(imp.Pos()), p)
			}
			if p == "pegflow/internal/engine" {
				engineName = "engine"
				if imp.Name != nil {
					engineName = imp.Name.Name
				}
			}
		}
		if engineName == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == engineName && sel.Sel.Name != "Result" {
					t.Errorf("%s: core uses engine.%s; it may name engine only for RunResult.Result's type",
						fset.Position(sel.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
	}
	for _, dir := range []string{filepath.Join("internal", "scenario"), filepath.Join("internal", "server")} {
		for _, f := range files(dir) {
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "pegflow/internal/core" {
					t.Errorf("%s imports %s", fset.Position(imp.Pos()), p)
				}
			}
		}
	}
}
