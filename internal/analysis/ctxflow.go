package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CtxFlow enforces context plumbing on the request path. In the
// configured packages (the serve/scenario tier), a function that
// receives a context — a context.Context parameter or an *http.Request
// — must thread it: calling context.Background() or context.TODO()
// there severs cancellation from the caller, which is precisely the
// bug class behind PR 7's leaked gate tokens. Two shapes of
// unobservable blocking are flagged alongside:
//
//   - a bare channel send/receive in a context-receiving function (it
//     cannot be interrupted; wrap it in a select with ctx.Done()), and
//   - a blocking select (no default case) with no ctx.Done() arm in
//     any function where a context is in scope, including closures
//     that capture one.
//
// The checks are syntactic per function: closures are independent
// functions, so a deferred `func() { <-gate }` that captures no
// context stays legal (it releases a token and must not be
// cancelable).
type CtxFlow struct {
	// Packages restricts checking to the request path; patterns as in
	// matchPath.
	Packages []string
}

func (*CtxFlow) Name() string { return "ctxflow" }
func (*CtxFlow) Doc() string {
	return "flag dropped contexts and unobservable blocking on the serve/scenario request path"
}

func (c *CtxFlow) Run(prog *Program, report func(pos token.Position, message string)) error {
	for _, pkg := range prog.Module {
		if !matchPath(pkg.Path, c.Packages) {
			continue
		}
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					c.checkFunc(prog, pkg, fd.Type, fd.Body, report)
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					c.checkFunc(prog, pkg, fl.Type, fl.Body, report)
				}
				return true
			})
		}
	}
	return nil
}

func (c *CtxFlow) checkFunc(prog *Program, pkg *Package, ft *ast.FuncType, body *ast.BlockStmt, report func(pos token.Position, message string)) {
	receivesCtx := c.signatureReceivesContext(pkg, ft)
	ctxInScope := receivesCtx || referencesContext(pkg, body)
	if !ctxInScope {
		return
	}
	// Channel operations managed by a select are judged via the select
	// itself, not as bare operations.
	selectOps := map[ast.Node]bool{}
	collect := func(sel *ast.SelectStmt) {
		for _, cl := range sel.Body.List {
			cc := cl.(*ast.CommClause)
			switch comm := cc.Comm.(type) {
			case *ast.SendStmt:
				selectOps[comm] = true
			case *ast.ExprStmt:
				selectOps[ast.Unparen(comm.X)] = true
			case *ast.AssignStmt:
				if len(comm.Rhs) == 1 {
					selectOps[ast.Unparen(comm.Rhs[0])] = true
				}
			}
		}
	}
	walkFunc(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.SelectStmt:
			collect(n)
			if selectHasDefault(n) {
				return
			}
			if !c.selectHasDoneCase(pkg, n) {
				report(prog.Fset.Position(n.Pos()),
					"blocking select with a context in scope has no ctx.Done() case; cancellation cannot interrupt it")
			}
		case *ast.SendStmt:
			if receivesCtx && !selectOps[n] {
				report(prog.Fset.Position(n.Pos()),
					"bare channel send in a context-receiving function cannot observe cancellation; use a select with ctx.Done()")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && receivesCtx && !selectOps[n] {
				report(prog.Fset.Position(n.Pos()),
					"bare channel receive in a context-receiving function cannot observe cancellation; use a select with ctx.Done()")
			}
		case *ast.CallExpr:
			obj := calleeObj(pkg.Info, n)
			if receivesCtx && (isPkgFunc(obj, "context", "Background") || isPkgFunc(obj, "context", "TODO")) {
				report(prog.Fset.Position(n.Pos()),
					"function already receives a context; thread it instead of starting a fresh context."+obj.Name()+"()")
			}
		}
	})
}

// signatureReceivesContext reports whether the function's parameters
// include a context.Context or an *http.Request (whose Context() is
// the request's lifetime).
func (c *CtxFlow) signatureReceivesContext(pkg *Package, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, p := range ft.Params.List {
		t := pkg.Info.TypeOf(p.Type)
		if t == nil {
			continue
		}
		if k := typeKey(t); k == "context.Context" || k == "net/http.Request" {
			return true
		}
	}
	return false
}

// referencesContext reports whether the body mentions any
// context.Context-typed identifier (including captured ones), without
// descending into nested function literals.
func referencesContext(pkg *Package, body *ast.BlockStmt) bool {
	found := false
	walkFunc(body, func(n ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok || found {
			return
		}
		obj := pkg.Info.Uses[id]
		if obj == nil {
			return
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return
		}
		if typeKey(obj.Type()) == "context.Context" {
			found = true
		}
	})
	return found
}

// selectHasDoneCase reports whether any comm clause receives from
// <-x.Done() with x a context.Context.
func (c *CtxFlow) selectHasDoneCase(pkg *Package, sel *ast.SelectStmt) bool {
	for _, cl := range sel.Body.List {
		cc := cl.(*ast.CommClause)
		var recv ast.Expr
		switch comm := cc.Comm.(type) {
		case *ast.ExprStmt:
			recv = comm.X
		case *ast.AssignStmt:
			if len(comm.Rhs) == 1 {
				recv = comm.Rhs[0]
			}
		}
		un, ok := ast.Unparen(recv).(*ast.UnaryExpr)
		if !ok || un.Op != token.ARROW {
			continue
		}
		call, ok := ast.Unparen(un.X).(*ast.CallExpr)
		if !ok {
			continue
		}
		selExpr, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || selExpr.Sel.Name != "Done" {
			continue
		}
		if t := pkg.Info.TypeOf(selExpr.X); t != nil && typeKey(t) == "context.Context" {
			return true
		}
	}
	return false
}

// walkFunc visits every node of one function body without entering
// nested function literals (they are checked as their own functions).
func walkFunc(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}
