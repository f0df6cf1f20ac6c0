package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CloneGate enforces the sharing rule behind the plan cache: a
// *planner.Plan, *planner.Job, *dax.Workflow or *dax.Job handed out of a
// cache is an immutable shared master — mutating it corrupts every future
// retrieval — and a Plan.Clone shares its master's graph, index and slice
// backing arrays. Field writes through these types are therefore only
// legal in the defining packages (whose constructors and Clone methods
// build fresh values) and in an explicitly whitelisted set of functions
// that have been audited to operate on freshly cloned or freshly
// constructed values. The graph a plan carries is never private, so calling
// a mutating method on a workflow or job reached through a plan is
// reported as well.
type CloneGate struct {
	// Protected lists the guarded named types as "pkg/path.Name".
	Protected []string
	// DefiningPkgs may mutate freely: the packages that own the types.
	DefiningPkgs []string
	// AllowedFuncs maps "pkg/path.FuncName" (or "pkg/path.Recv.Name") to
	// the justification for why its writes are safe (fresh clone or
	// under-construction value).
	AllowedFuncs map[string]string
	// SharedVia names the type ("pkg/path.Name") whose reachable Protected
	// values are shared between clones, and SharedMutators the methods
	// that grow or edit such a value in place: a call to one of them on a
	// Protected receiver reached through a SharedVia expression is a
	// finding.
	SharedVia      string
	SharedMutators []string
}

func (*CloneGate) Name() string { return "clonegate" }
func (*CloneGate) Doc() string {
	return "forbid field writes through cached plan/DAX types outside whitelisted clone/constructor functions, and mutating method calls on a plan's shared graph"
}

func (c *CloneGate) Run(prog *Program, report func(pos token.Position, key, message string)) error {
	protected := make(map[string]bool, len(c.Protected))
	for _, p := range c.Protected {
		protected[p] = true
	}
	mutators := make(map[string]bool, len(c.SharedMutators))
	for _, m := range c.SharedMutators {
		mutators[m] = true
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
				c.checkFunc(prog, pkg, fd, protected, mutators, report)
			}
		}
	}
	return nil
}

func (c *CloneGate) checkFunc(prog *Program, pkg *Package, fd *ast.FuncDecl, protected, mutators map[string]bool, report func(pos token.Position, key, message string)) {
	flag := func(lhs ast.Expr) {
		if key, field := c.protectedWrite(pkg.Info, lhs, protected); key != "" {
			pos := prog.Fset.Position(lhs.Pos())
			report(pos, shortTypeKey(key)+"."+field,
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
		case *ast.CallExpr:
			if key, method := c.sharedMutation(pkg.Info, n, protected, mutators); key != "" {
				report(prog.Fset.Position(n.Pos()), shortTypeKey(key)+"."+method,
					"call to "+shortTypeKey(key)+"."+method+" through a "+shortTypeKey(c.SharedVia)+": its graph is shared with the cached master and every clone — build a new plan instead")
			}
		}
		return true
	})
}

// sharedMutation reports whether call invokes a mutating method on a
// protected value reached through a SharedVia expression — p.Graph().AddJob,
// p.Graph().Job(id).SetProfile — returning the receiver's type key and the
// method name. It walks the receiver inward through selections, calls,
// indexing and dereferences; a value first bound to a local variable is
// out of its reach, as it is for the field-write rule.
func (c *CloneGate) sharedMutation(info *types.Info, call *ast.CallExpr, protected, mutators map[string]bool) (typeKey_, method string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !mutators[sel.Sel.Name] {
		return "", ""
	}
	recv := info.TypeOf(sel.X)
	if recv == nil || !protected[typeKey(recv)] {
		return "", ""
	}
	expr := ast.Unparen(sel.X)
	for {
		if t := info.TypeOf(expr); t != nil && typeKey(t) == c.SharedVia {
			return typeKey(recv), sel.Sel.Name
		}
		switch e := expr.(type) {
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.CallExpr:
			expr = e.Fun
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return "", ""
		}
		expr = ast.Unparen(expr)
	}
}

// protectedWrite reports whether assigning through lhs mutates a
// protected value, returning the protected type key and the written
// field ("*" for whole-value stores through a pointer). It walks the LHS
// inward: an index or star step keeps the search going (writing p.Sites[k]
// or *p mutates p's reachable state), a field selection on a protected
// base is the violation.
func (c *CloneGate) protectedWrite(info *types.Info, lhs ast.Expr, protected map[string]bool) (typeKey_, field string) {
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

// shortTypeKey trims the module-internal prefix for readable finding keys:
// "pegflow/internal/planner.Job" -> "planner.Job".
func shortTypeKey(key string) string {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[i+1:]
	}
	return key
}
