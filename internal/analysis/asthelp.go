package analysis

import (
	"go/ast"
	"go/types"
)

// calleeObj resolves the called object of a call expression: a
// *types.Func for ordinary and method calls, a *types.Builtin for
// builtins, nil for indirect calls through variables. A method reached
// through an instantiated generic type resolves to its declaration, which
// is what configured names are recorded against.
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

// funcDisplayName renders a FuncDecl as "Name" or "Recv.Name" with any
// pointer/generic decoration stripped, matching the clonegate
// configuration syntax.
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
