package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// calleeObj resolves the called object of a call expression: a
// *types.Func for ordinary and method calls, a *types.Builtin for
// builtins, nil for indirect calls through variables. A method reached
// through an instantiated generic type resolves to its declaration, which
// is what annotations and configured names are recorded against.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			// Package-qualified call (pkg.Func): the selector identifier
			// resolves directly.
			obj = info.Uses[fun.Sel]
		}
	}
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// isPkgFunc reports whether obj is the package-level function pkgPath.name.
func isPkgFunc(obj types.Object, pkgPath, name string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// funcDisplayName renders a FuncDecl as "Name" or "Recv.Name" with any
// pointer/generic decoration stripped, matching the escapegate and
// clonegate configuration syntax.
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name + "." + fd.Name.Name
		default:
			return fd.Name.Name
		}
	}
}

// enclosingFuncDecl returns the function declaration whose body spans pos,
// or nil.
func enclosingFuncDecl(files []*ast.File, pos token.Pos) *ast.FuncDecl {
	for _, f := range files {
		if pos < f.Pos() || pos > f.End() {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil && fd.Body.Pos() <= pos && pos <= fd.Body.End() {
				return fd
			}
		}
	}
	return nil
}

// nodesAt returns the chain of nodes containing pos, outermost first.
func nodesAt(root ast.Node, pos token.Pos) []ast.Node {
	var path []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if n.Pos() <= pos && pos < n.End() {
			path = append(path, n)
			return true
		}
		return false
	})
	return path
}

// namedType unwraps t to its *types.Named form, looking through pointers
// and aliases; nil if t has no named core.
func namedType(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// typeKey renders a named type as "pkg/path.Name" (the generic origin for
// instantiated types), or "" for unnamed types.
func typeKey(t types.Type) string {
	n := namedType(t)
	if n == nil {
		return ""
	}
	n = n.Origin()
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
