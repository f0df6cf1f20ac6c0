package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// detRange guards the repo's first invariant — byte-identical output for a
// given (scenario, seed) regardless of worker count — at its most common
// failure point: Go map iteration order. A `range` over a map that builds
// output (appends rows, writes to an encoder, a writer or stdout, or calls
// a local closure that does) emits in a different order every run unless the
// collected values are deterministically sorted afterwards. The analyzer
// accepts the canonical two-phase idiom (collect keys, sort, then emit)
// and flags everything else on the output-path packages.
type detRange struct {
	// Packages are the output-path package patterns.
	Packages []string
}

func (*detRange) Name() string { return "detrange" }
func (*detRange) Doc() string {
	return "flag map iteration that builds output without a subsequent deterministic sort"
}

func (d *detRange) Run(prog *Program, report func(pos token.Position, message string)) error {
	for _, pkg := range prog.Module {
		if !matchPath(pkg.Path, d.Packages) {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				d.checkFunc(prog, pkg, fd, report)
			}
		}
	}
	return nil
}

// rangeEffect describes what a map-range body does with the iteration.
type rangeEffect struct {
	kind string // "append", "write" or "closure"
	// target is the object appended to, when known — used to recognize a
	// later sort of the same slice.
	target types.Object
}

func (d *detRange) checkFunc(prog *Program, pkg *Package, fd *ast.FuncDecl, report func(pos token.Position, message string)) {
	closures := localClosures(fd.Body, pkg.Info)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pkg.Info.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		eff := bodyEffect(rs.Body, pkg.Info, closures, 2)
		if eff == nil {
			return true
		}
		if eff.target != nil && sortedAfter(fd.Body, rs, eff.target, pkg.Info) {
			return true
		}
		pos := prog.Fset.Position(rs.Pos())
		var what string
		switch eff.kind {
		case "append":
			what = "appends to a slice"
		case "write":
			what = "writes output"
		case "closure":
			what = "calls a closure that builds output"
		case "callback":
			what = "invokes a callback whose side effects the analyzer cannot see"
		}
		report(pos, "map iteration order is nondeterministic and the body "+what+
			" with no deterministic sort afterwards; collect keys, sort, then emit")
		return true
	})
}

// localClosures maps closure variables (`name := func(...) {...}`) to
// their bodies, so calls through them can be inspected for output effects.
func localClosures(body *ast.BlockStmt, info *types.Info) map[types.Object]*ast.FuncLit {
	out := map[types.Object]*ast.FuncLit{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			lit, ok := ast.Unparen(rhs).(*ast.FuncLit)
			if !ok {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := info.Defs[id]; obj != nil {
					out[obj] = lit
				} else if obj := info.Uses[id]; obj != nil {
					out[obj] = lit
				}
			}
		}
		return true
	})
	return out
}

// writerMethod reports whether a method name smells like an output sink.
func writerMethod(name string) bool {
	switch name {
	case "Encode", "Print", "Printf", "Println", "Flush":
		return true
	}
	return len(name) >= 5 && name[:5] == "Write"
}

// bodyEffect scans a statement body for output-building effects. depth
// bounds closure-following recursion.
func bodyEffect(body ast.Node, info *types.Info, closures map[types.Object]*ast.FuncLit, depth int) *rangeEffect {
	var eff *rangeEffect
	ast.Inspect(body, func(n ast.Node) bool {
		if eff != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				if b, ok := calleeObj(info, call).(*types.Builtin); ok && b.Name() == "append" {
					e := &rangeEffect{kind: "append"}
					if i < len(n.Lhs) {
						if id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident); ok {
							if obj := info.Uses[id]; obj != nil {
								e.target = obj
							} else if obj := info.Defs[id]; obj != nil {
								e.target = obj
							}
						}
					}
					eff = e
					return false
				}
			}
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.SelectorExpr:
				if _, isMethod := info.Selections[fun]; isMethod && writerMethod(fun.Sel.Name) {
					eff = &rangeEffect{kind: "write"}
					return false
				}
				if obj := info.Uses[fun.Sel]; obj != nil {
					// fmt's Fprint* write to a writer, its Print* to stdout.
					if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
						(strings.HasPrefix(fn.Name(), "Fprint") || strings.HasPrefix(fn.Name(), "Print")) {
						eff = &rangeEffect{kind: "write"}
						return false
					}
				}
			case *ast.Ident:
				obj := info.Uses[fun]
				if obj == nil {
					return true
				}
				if lit, ok := closures[obj]; ok {
					if depth > 0 && bodyEffect(lit.Body, info, closures, depth-1) != nil {
						eff = &rangeEffect{kind: "closure"}
						return false
					}
					return true
				}
				// A call through a func-typed variable whose body we cannot
				// see (a callback parameter): its side effects happen once
				// per map element in nondeterministic order.
				if v, ok := obj.(*types.Var); ok {
					if _, isFunc := v.Type().Underlying().(*types.Signature); isFunc {
						eff = &rangeEffect{kind: "callback"}
						return false
					}
				}
			}
		}
		return true
	})
	return eff
}

// sortedAfter reports whether some statement after rs (in any block of the
// function that contains rs) sorts the append target.
func sortedAfter(funcBody *ast.BlockStmt, rs *ast.RangeStmt, target types.Object, info *types.Info) bool {
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if found {
			return false
		}
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		idx := -1
		for i, st := range block.List {
			if st == rs {
				idx = i
				break
			}
		}
		if idx < 0 {
			return true
		}
		for _, st := range block.List[idx+1:] {
			if stmtSortsTarget(st, target, info) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// stmtSortsTarget reports whether the statement calls a sort.* or
// slices.Sort* function with the target slice as an argument.
func stmtSortsTarget(st ast.Stmt, target types.Object, info *types.Info) bool {
	found := false
	ast.Inspect(st, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, ok := calleeObj(info, call).(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && info.Uses[id] == target {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
