package ensemble

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"strings"
	"testing"
)

// TestOneEventRoute parses the non-test sources of this package and of
// platform: a terminal event leaves a site by one route whoever submitted
// the attempt. No function type takes an engine.Event (an attempt carries a
// member tag, not a callback), platform holds the one event queue
// (fifo.Queue field) and exactly one exported type implements
// engine.Executor.
func TestOneEventRoute(t *testing.T) {
	callbacks, queues := 0, map[string]int{}
	methods := map[string]map[string]bool{} // receiver type -> method names
	var named []string                      // exported named types, aliases excluded
	for _, dir := range []string{".", "../sim/platform"} {
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for name, pkg := range pkgs {
			signatures := map[*ast.FuncType]bool{}
			ast.Inspect(pkg, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					signatures[n.Type] = true
					if n.Recv != nil {
						recv := receiverName(n.Recv.List[0].Type)
						if methods[recv] == nil {
							methods[recv] = map[string]bool{}
						}
						methods[recv][n.Name.Name] = true
					}
				case *ast.FuncType:
					if !signatures[n] && takesEvent(n) {
						callbacks++
					}
				case *ast.TypeSpec:
					if n.Name.IsExported() && !n.Assign.IsValid() {
						named = append(named, n.Name.Name)
					}
				case *ast.Field:
					if strings.HasPrefix(types.ExprString(n.Type), "fifo.Queue[") {
						queues[name]++
					}
				}
				return true
			})
		}
	}
	if callbacks != 0 {
		t.Errorf("%d function types taking an engine.Event; terminal events must leave by the pool's queue", callbacks)
	}
	if len(queues) != 1 || queues["platform"] != 1 {
		t.Errorf("fifo.Queue fields per package = %v, want one, in platform", queues)
	}
	var executors []string
	for _, typ := range named {
		if m := methods[typ]; m["Submit"] && m["Next"] && m["Now"] {
			executors = append(executors, typ)
		}
	}
	if len(executors) != 1 {
		t.Errorf("exported engine.Executor implementations = %v, want one", executors)
	}
}

// receiverName is the type name of a method receiver, T or *T.
func receiverName(x ast.Expr) string {
	if star, ok := x.(*ast.StarExpr); ok {
		x = star.X
	}
	if id, ok := x.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// takesEvent reports whether any parameter of the function type is an
// engine.Event.
func takesEvent(ft *ast.FuncType) bool {
	for _, p := range ft.Params.List {
		if types.ExprString(p.Type) == "engine.Event" {
			return true
		}
	}
	return false
}
