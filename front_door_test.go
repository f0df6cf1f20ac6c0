package pegflow_test

import (
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
// imports internal/core.
func TestOneFrontDoor(t *testing.T) {
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
