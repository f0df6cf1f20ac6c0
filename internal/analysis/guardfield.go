package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"pegflow/internal/analysis/cfg"
)

// GuardField enforces mutex/field association: a field or variable
// annotated //pegflow:guarded <mutex> may only be read while the mutex
// is held on EVERY control-flow path to the access, and only written
// while it is held exclusively (an RLock does not license writes).
// Functions annotated //pegflow:holds <mutex> are checked with the
// mutex assumed held and their callers are checked for holding it.
//
// The analysis is a must-dataflow over the intra-procedural CFG:
// Lock/RLock generate a hold fact keyed by (root identifier, selector
// path), Unlock/RUnlock kill it, and joins intersect — so a lock taken
// on only one arm of a branch does not count after the join. A
// `defer mu.Unlock()` deliberately does NOT kill the fact: the mutex
// stays held until the function returns. Function literals are
// analyzed as separate functions with no inherited holds, which is
// exactly right for goroutine bodies and deferred closures that must
// do their own locking.
type GuardField struct{}

func (*GuardField) Name() string { return "guardfield" }
func (*GuardField) Doc() string {
	return "flag accesses to //pegflow:guarded fields on paths where the guarding mutex is not held"
}

// guardKind is the strength of a held lock.
type guardKind int

const (
	heldRead guardKind = iota + 1
	heldExcl
)

// guardFact maps held synchronizers to the strength of the hold.
// Treated as immutable; transfer copies on write.
type guardFact map[holdKey]guardKind

func (g *GuardField) Run(prog *Program, report func(pos token.Position, key, message string)) error {
	m := collectConcMarkers(prog)
	for _, p := range m.problems {
		report(prog.Fset.Position(p.pos), p.key, p.msg)
	}
	if len(m.fields) == 0 && len(m.vars) == 0 && len(m.holds) == 0 {
		return nil
	}
	for _, pkg := range prog.Module {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				g.checkFunc(prog, pkg, m, fd.Body, g.entryFact(pkg, m, fd), report)
			}
			ast.Inspect(file, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					g.checkFunc(prog, pkg, m, fl.Body, guardFact{}, report)
				}
				return true
			})
		}
	}
	return nil
}

// entryFact seeds the dataflow for //pegflow:holds functions: the named
// mutex is held (exclusively) on entry.
func (g *GuardField) entryFact(pkg *Package, m *concMarkers, fd *ast.FuncDecl) guardFact {
	fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return guardFact{}
	}
	spec, ok := m.holds[fn]
	if !ok {
		return guardFact{}
	}
	if spec.pkgVar != nil {
		return guardFact{{root: spec.pkgVar}: heldExcl}
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return guardFact{}
	}
	recvObj := pkg.Info.Defs[fd.Recv.List[0].Names[0]]
	if recvObj == nil {
		return guardFact{}
	}
	return guardFact{{root: recvObj, path: spec.name}: heldExcl}
}

func (g *GuardField) checkFunc(prog *Program, pkg *Package, m *concMarkers, body *ast.BlockStmt, entry guardFact, report func(pos token.Position, key, message string)) {
	graph := cfg.Build(body)
	in := cfg.Forward(graph, entry, mergeGuard, equalGuard, func(blk *cfg.Block, f guardFact) guardFact {
		for _, n := range blk.Nodes {
			f = g.step(pkg, f, n)
		}
		return f
	})
	for _, blk := range graph.Blocks {
		f, reached := in[blk]
		if !reached {
			continue
		}
		for _, n := range blk.Nodes {
			g.checkNode(prog, pkg, m, f, n, report)
			f = g.step(pkg, f, n)
		}
	}
}

// step applies the lock gen/kill effects of one CFG node. Defers are
// skipped wholesale: `defer mu.Unlock()` keeps the mutex held to the
// end of the function, so it must not kill the fact.
func (g *GuardField) step(pkg *Package, f guardFact, n ast.Node) guardFact {
	if _, ok := n.(*ast.DeferStmt); ok {
		return f
	}
	ast.Inspect(n, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok {
			return false
		}
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		op, recv := syncCall(pkg.Info, call)
		if op == opNone {
			return true
		}
		key, ok := syncKey(pkg.Info, recv)
		if !ok {
			return true
		}
		switch op {
		case opLock:
			f = f.with(key, heldExcl)
		case opRLock:
			f = f.with(key, heldRead)
		case opUnlock, opRUnlock:
			f = f.without(key)
		}
		return true
	})
	return f
}

// checkNode reports guarded accesses and //pegflow:holds calls in one
// node against the fact holding before the node executes.
func (g *GuardField) checkNode(prog *Program, pkg *Package, m *concMarkers, f guardFact, n ast.Node, report func(pos token.Position, key, message string)) {
	if _, ok := n.(*ast.DeferStmt); ok {
		return
	}
	writes := writeTargets(n)
	ast.Inspect(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectorExpr:
			g.checkFieldAccess(prog, pkg, m, f, c, writes[c], report)
		case *ast.Ident:
			g.checkVarAccess(prog, pkg, m, f, c, writes[c], report)
		case *ast.CallExpr:
			g.checkHoldsCall(prog, pkg, m, f, c, report)
		}
		return true
	})
}

func (g *GuardField) checkFieldAccess(prog *Program, pkg *Package, m *concMarkers, f guardFact, sel *ast.SelectorExpr, isWrite bool, report func(pos token.Position, key, message string)) {
	var obj types.Object
	if s, ok := pkg.Info.Selections[sel]; ok {
		obj = s.Obj()
	} else {
		obj = pkg.Info.Uses[sel.Sel]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return
	}
	// A field selected through an instantiated generic type is a copy of
	// the declared field; the annotation is recorded on the declaration.
	ref, guarded := m.fields[v.Origin()]
	if !guarded {
		return
	}
	pos := prog.Fset.Position(sel.Pos())
	root, basePath, ok := exprRootPath(pkg.Info, sel.X)
	if !ok {
		report(pos, ref.display, fmt.Sprintf("guarded field %s accessed through a non-identifier base; bind the owner to a local (sh := &...) so its mutex can be tracked", ref.display))
		return
	}
	key := holdKey{root: root, path: joinPath(basePath, ref.guardName)}
	g.reportHold(pos, f, key, ref.display, isWrite, report)
}

func (g *GuardField) checkVarAccess(prog *Program, pkg *Package, m *concMarkers, f guardFact, id *ast.Ident, isWrite bool, report func(pos token.Position, key, message string)) {
	v, ok := pkg.Info.Uses[id].(*types.Var)
	if !ok {
		return
	}
	ref, guarded := m.vars[v]
	if !guarded {
		return
	}
	key := holdKey{root: ref.guard}
	g.reportHold(prog.Fset.Position(id.Pos()), f, key, ref.display, isWrite, report)
}

func (g *GuardField) reportHold(pos token.Position, f guardFact, key holdKey, display string, isWrite bool, report func(pos token.Position, key, message string)) {
	kind, held := f[key]
	switch {
	case !held:
		report(pos, display, fmt.Sprintf("%s is //pegflow:guarded, but %s is not held on every path to this access", display, key))
	case isWrite && kind == heldRead:
		report(pos, display, fmt.Sprintf("write to %s while holding only the read lock on %s; writes need the exclusive Lock", display, key))
	}
}

func (g *GuardField) checkHoldsCall(prog *Program, pkg *Package, m *concMarkers, f guardFact, call *ast.CallExpr, report func(pos token.Position, key, message string)) {
	fn, ok := calleeObj(pkg.Info, call).(*types.Func)
	if !ok {
		return
	}
	spec, ok := m.holds[fn]
	if !ok {
		return
	}
	pos := prog.Fset.Position(call.Pos())
	var key holdKey
	if spec.pkgVar != nil {
		key = holdKey{root: spec.pkgVar}
	} else {
		sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !isSel {
			return
		}
		root, basePath, okRoot := exprRootPath(pkg.Info, sel.X)
		if !okRoot {
			report(pos, spec.display, fmt.Sprintf("call to %s (//pegflow:holds %s) through a non-identifier receiver; bind it to a local so the held mutex can be tracked", spec.display, spec.name))
			return
		}
		key = holdKey{root: root, path: joinPath(basePath, spec.name)}
	}
	if f[key] != heldExcl {
		report(pos, spec.display, fmt.Sprintf("call to %s requires %s held (//pegflow:holds %s), but it is not held on every path here", spec.display, key, spec.name))
	}
}

// writeTargets returns the set of lvalue expressions a node writes to
// (or escapes with &), with index/star wrappers stripped so the map or
// struct field itself is the recorded target.
func writeTargets(n ast.Node) map[ast.Node]bool {
	out := map[ast.Node]bool{}
	mark := func(e ast.Expr) {
		for {
			switch t := ast.Unparen(e).(type) {
			case *ast.IndexExpr:
				e = t.X
			case *ast.StarExpr:
				e = t.X
			default:
				out[ast.Unparen(e)] = true
				return
			}
		}
	}
	ast.Inspect(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, lhs := range c.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(c.X)
		case *ast.UnaryExpr:
			if c.Op == token.AND {
				mark(c.X)
			}
		}
		return true
	})
	return out
}

func (f guardFact) with(k holdKey, kind guardKind) guardFact {
	out := make(guardFact, len(f)+1)
	for key, v := range f {
		out[key] = v
	}
	out[k] = kind
	return out
}

func (f guardFact) without(k holdKey) guardFact {
	if _, ok := f[k]; !ok {
		return f
	}
	out := make(guardFact, len(f))
	for key, v := range f {
		if key != k {
			out[key] = v
		}
	}
	return out
}

// mergeGuard intersects: a hold survives a join only if every reaching
// path holds it, at the weaker of the two strengths.
func mergeGuard(a, b guardFact) guardFact {
	out := guardFact{}
	for k, ka := range a {
		if kb, ok := b[k]; ok {
			kind := ka
			if kb < kind {
				kind = kb
			}
			out[k] = kind
		}
	}
	return out
}

func equalGuard(a, b guardFact) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
