package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// cloneGate enforces the sharing rule behind the plan cache: a
// *planner.Plan, *planner.Job, *dax.Workflow or *dax.Job handed out of a
// cache is an immutable shared master — mutating it corrupts every future
// retrieval — and a Plan.Clone shares its master's index and slice backing
// arrays, as the view Plan.Graph derives shares the abstract workflow's
// Uses arrays. Field writes through these types are therefore only
// legal in the defining packages (whose constructors and Clone methods
// build fresh values) and in an explicitly whitelisted set of functions
// that have been audited to operate on freshly cloned or freshly
// constructed values.
type cloneGate struct {
	// Protected lists the guarded named types as "pkg/path.Name".
	Protected []string
	// DefiningPkgs may mutate freely: the packages that own the types.
	DefiningPkgs []string
	// AllowedFuncs maps "pkg/path.FuncName" (or "pkg/path.Recv.Name") to
	// the justification for why its writes are safe (fresh clone or
	// under-construction value).
	AllowedFuncs map[string]string
}

func (*cloneGate) Name() string { return "clonegate" }
func (*cloneGate) Doc() string {
	return "forbid field writes through cached plan/DAX types outside whitelisted clone/constructor functions"
}

func (c *cloneGate) Run(prog *Program, report func(pos token.Position, message string)) error {
	protected := make(map[string]bool, len(c.Protected))
	for _, p := range c.Protected {
		protected[p] = true
	}
	for _, pkg := range prog.Module {
		if matchPath(pkg.Path, c.DefiningPkgs) {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if _, ok := c.AllowedFuncs[pkg.Path+"."+funcDisplayName(fd)]; ok {
					continue
				}
				c.checkFunc(prog, pkg, fd, protected, report)
			}
		}
	}
	return nil
}

func (c *cloneGate) checkFunc(prog *Program, pkg *Package, fd *ast.FuncDecl, protected map[string]bool, report func(pos token.Position, message string)) {
	flag := func(lhs ast.Expr) {
		if key, field := c.protectedWrite(pkg.Info, lhs, protected); key != "" {
			pos := prog.Fset.Position(lhs.Pos())
			report(pos,
				"write to "+shortTypeKey(key)+"."+field+" outside its defining package: cached masters are shared — Clone before mutating, or whitelist this function with a justification")
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				flag(lhs)
			}
		case *ast.IncDecStmt:
			flag(n.X)
		}
		return true
	})
}

// protectedWrite reports whether assigning through lhs mutates a
// protected value, returning the protected type key and the written
// field ("*" for whole-value stores through a pointer). It walks the LHS
// inward: an index or star step keeps the search going (writing p.Sites[k]
// or *p mutates p's reachable state), a field selection on a protected
// base is the violation.
func (c *cloneGate) protectedWrite(info *types.Info, lhs ast.Expr, protected map[string]bool) (typeKey_, field string) {
	expr := ast.Unparen(lhs)
	for {
		switch e := expr.(type) {
		case *ast.SelectorExpr:
			base := info.TypeOf(e.X)
			if base != nil {
				if k := typeKey(base); protected[k] {
					return k, e.Sel.Name
				}
			}
			expr = ast.Unparen(e.X)
		case *ast.IndexExpr:
			expr = ast.Unparen(e.X)
		case *ast.StarExpr:
			inner := info.TypeOf(e.X)
			if inner != nil {
				if k := typeKey(inner); protected[k] {
					return k, "*"
				}
			}
			expr = ast.Unparen(e.X)
		default:
			return "", ""
		}
	}
}

// shortTypeKey trims the module-internal prefix for readable findings:
// "pegflow/internal/planner.Job" -> "planner.Job".
func shortTypeKey(key string) string {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[i+1:]
	}
	return key
}
