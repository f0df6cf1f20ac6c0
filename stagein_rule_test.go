package pegflow_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneStageInRule: whether a plan carries stage-in jobs is decided in one
// place, ensemble.StageIn. Outside the planner that defines the option and
// the benchmark that sets it by hand, every non-test AddStageIn value is a
// call to StageIn, and scenario.EnsembleExperiment carries no StageIn field for
// a caller to set instead.
func TestOneStageInRule(t *testing.T) {
	exempt := map[string]bool{
		filepath.Join("internal", "planner"): true,
		"bench":                              true,
		"testdata":                           true,
		".git":                               true,
	}
	isRule := func(v ast.Expr) bool {
		call, ok := v.(*ast.CallExpr)
		if !ok {
			return false
		}
		switch fn := call.Fun.(type) {
		case *ast.Ident: // inside package ensemble
			return fn.Name == "StageIn"
		case *ast.SelectorExpr:
			x, ok := fn.X.(*ast.Ident)
			return ok && x.Name == "ensemble" && fn.Sel.Name == "StageIn"
		}
		return false
	}
	rules, sawExperiment := 0, false
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if exempt[path] || exempt[d.Name()] {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				if k, ok := n.Key.(*ast.Ident); !ok || k.Name != "AddStageIn" {
					return true
				}
				if !isRule(n.Value) {
					t.Errorf("%s: AddStageIn is set from something other than ensemble.StageIn", fset.Position(n.Pos()))
				}
				rules++
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok || n.Name.Name != "EnsembleExperiment" || filepath.Dir(path) != filepath.Join("internal", "scenario") {
					return true
				}
				sawExperiment = true
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						if name.Name == "StageIn" {
							t.Errorf("%s: scenario.EnsembleExperiment has a StageIn field; stage-in is ensemble.StageIn of its Sites",
								fset.Position(name.Pos()))
						}
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawExperiment {
		t.Error("scenario.EnsembleExperiment not found")
	}
	// scenario's member plans and ensemble.PlanAll both derive it.
	if rules < 2 {
		t.Errorf("%d AddStageIn values found, want at least 2 (scenario and ensemble.PlanAll)", rules)
	}
}
