package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Concurrency annotation markers: doc comments that opt code into
// checking — see docs/LINTING.md.
//
//	//pegflow:guarded <mutex>  on a struct field or var: the sibling
//	                           mutex must be held to touch it (guardfield)
//	//pegflow:holds <mutex>    on a func: callers must hold the mutex;
//	                           the body is checked as if it is held
//	//pegflow:token            on a semaphore channel: sends acquire a
//	                           slot, receives release it (pairpath)
//	//pegflow:blocking         on a func or callback field: calling it
//	                           can block indefinitely (lockhold)
const (
	guardedMarker  = "//pegflow:guarded"
	holdsMarker    = "//pegflow:holds"
	tokenMarker    = "//pegflow:token"
	blockingMarker = "//pegflow:blocking"
)

// holdKey identifies one mutex or token instance as seen from inside a
// function: the root identifier's object plus the dotted selector path
// to the synchronizer ("" for a plain variable, "mu" for s.mu,
// "inner.mu" for s.inner.mu). Tracking only identifier-rooted paths is
// what makes the analysis sound-by-construction for the code it can
// see; accesses through computed bases are reported separately so the
// idiom stays `sh := &m.shards[i]`.
type holdKey struct {
	root types.Object
	path string
}

func (k holdKey) String() string {
	if k.root == nil {
		return k.path
	}
	if k.path == "" {
		return k.root.Name()
	}
	return k.root.Name() + "." + k.path
}

func joinPath(base, name string) string {
	if base == "" {
		return name
	}
	return base + "." + name
}

// exprRootPath resolves an ident(.field)* chain to its root object and
// dotted path. ok is false for any other shape (index, call, deref).
func exprRootPath(info *types.Info, e ast.Expr) (root types.Object, path string, ok bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if obj == nil {
			return nil, "", false
		}
		return obj, "", true
	case *ast.SelectorExpr:
		root, base, ok := exprRootPath(info, e.X)
		if !ok {
			return nil, "", false
		}
		return root, joinPath(base, e.Sel.Name), true
	}
	return nil, "", false
}

// fieldGuard describes one //pegflow:guarded struct field: its guard is
// the named sibling field, resolved per-instance at each access site.
type fieldGuard struct {
	guardName string
	display   string // "shard.entries" — owning type dot field
}

// varGuard describes one //pegflow:guarded variable: its guard is a
// concrete object (a sibling of the same var block, or a package var).
type varGuard struct {
	guard   types.Object
	display string
}

// holdsSpec describes one //pegflow:holds function: methods resolve the
// mutex name against the receiver at each call site; plain functions
// bind a package-level var at collection time.
type holdsSpec struct {
	name    string
	pkgVar  types.Object // non-nil for non-method holds
	display string
}

// markerProblem is a malformed annotation; guardfield reports these so
// a typo cannot silently disable checking.
type markerProblem struct {
	pos token.Pos
	key string
	msg string
}

// concMarkers is the collected concurrency annotation surface of a
// program.
type concMarkers struct {
	fields   map[*types.Var]fieldGuard
	vars     map[*types.Var]varGuard
	token    map[*types.Var]bool
	blocking map[types.Object]bool
	holds    map[*types.Func]holdsSpec
	problems []markerProblem
}

// markerArg scans a comment group for marker and returns its (possibly
// empty) argument.
func markerArg(cg *ast.CommentGroup, marker string) (string, bool) {
	if cg == nil {
		return "", false
	}
	for _, c := range cg.List {
		text := strings.TrimSpace(c.Text)
		if text == marker {
			return "", true
		}
		if rest, ok := strings.CutPrefix(text, marker+" "); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return "", true
			}
			return f[0], true
		}
	}
	return "", false
}

func fieldMarkerArg(f *ast.Field, marker string) (string, bool) {
	if arg, ok := markerArg(f.Doc, marker); ok {
		return arg, ok
	}
	return markerArg(f.Comment, marker)
}

// collectConcMarkers gathers every guarded/holds/token/blocking
// annotation in the module.
func collectConcMarkers(prog *Program) *concMarkers {
	m := &concMarkers{
		fields:   map[*types.Var]fieldGuard{},
		vars:     map[*types.Var]varGuard{},
		token:    map[*types.Var]bool{},
		blocking: map[types.Object]bool{},
		holds:    map[*types.Func]holdsSpec{},
	}
	for _, pkg := range prog.Module {
		for _, file := range pkg.Files {
			m.collectFile(pkg, file)
		}
	}
	return m
}

func (m *concMarkers) problem(pos token.Pos, key, msg string) {
	m.problems = append(m.problems, markerProblem{pos: pos, key: key, msg: msg})
}

func (m *concMarkers) collectFile(pkg *Package, file *ast.File) {
	// Struct fields, wherever the struct type appears.
	ast.Inspect(file, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok || st.Fields == nil {
			return true
		}
		for _, f := range st.Fields.List {
			m.collectField(pkg, st, f)
		}
		return true
	})
	// Var declarations (package-level and in-function var blocks).
	ast.Inspect(file, func(n ast.Node) bool {
		gd, ok := n.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return true
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			m.collectVarSpec(pkg, gd, vs)
		}
		return true
	})
	// Function declarations.
	for _, d := range file.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		m.collectFuncDecl(pkg, fd)
	}
}

func (m *concMarkers) collectField(pkg *Package, st *ast.StructType, f *ast.Field) {
	if arg, ok := fieldMarkerArg(f, guardedMarker); ok {
		if arg == "" {
			m.problem(f.Pos(), "annotation", "//pegflow:guarded needs the name of the sibling mutex field")
		} else if guard := structFieldNamed(st, arg); guard == nil {
			m.problem(f.Pos(), "annotation", "//pegflow:guarded "+arg+" names no sibling field in this struct")
		} else {
			for _, name := range f.Names {
				if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
					m.fields[v] = fieldGuard{guardName: arg, display: ownerDisplay(pkg, v) + name.Name}
				}
			}
		}
	}
	if _, ok := fieldMarkerArg(f, tokenMarker); ok {
		for _, name := range f.Names {
			v, isVar := pkg.Info.Defs[name].(*types.Var)
			if !isVar {
				continue
			}
			if !isChanType(v.Type()) {
				m.problem(f.Pos(), "annotation", "//pegflow:token applies only to channel-typed fields")
				continue
			}
			m.token[v] = true
		}
	}
	if _, ok := fieldMarkerArg(f, blockingMarker); ok {
		for _, name := range f.Names {
			if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
				m.blocking[v] = true
			}
		}
	}
}

func (m *concMarkers) collectVarSpec(pkg *Package, gd *ast.GenDecl, vs *ast.ValueSpec) {
	specArg := func(marker string) (string, bool) {
		if arg, ok := markerArg(vs.Doc, marker); ok {
			return arg, ok
		}
		if len(gd.Specs) == 1 {
			return markerArg(gd.Doc, marker)
		}
		return "", false
	}
	if arg, ok := specArg(guardedMarker); ok {
		if arg == "" {
			m.problem(vs.Pos(), "annotation", "//pegflow:guarded needs the name of the guarding mutex variable")
		} else if guard := siblingVar(pkg, gd, arg); guard == nil {
			m.problem(vs.Pos(), "annotation", "//pegflow:guarded "+arg+" names no variable in the same var block")
		} else {
			for _, name := range vs.Names {
				if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
					m.vars[v] = varGuard{guard: guard, display: name.Name}
				}
			}
		}
	}
	if _, ok := specArg(tokenMarker); ok {
		for _, name := range vs.Names {
			v, isVar := pkg.Info.Defs[name].(*types.Var)
			if !isVar {
				continue
			}
			if !isChanType(v.Type()) {
				m.problem(vs.Pos(), "annotation", "//pegflow:token applies only to channel-typed variables")
				continue
			}
			m.token[v] = true
		}
	}
	if _, ok := specArg(blockingMarker); ok {
		for _, name := range vs.Names {
			if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
				m.blocking[v] = true
			}
		}
	}
}

func (m *concMarkers) collectFuncDecl(pkg *Package, fd *ast.FuncDecl) {
	if arg, ok := markerArg(fd.Doc, holdsMarker); ok {
		fn, isFn := pkg.Info.Defs[fd.Name].(*types.Func)
		switch {
		case !isFn:
		case arg == "":
			m.problem(fd.Pos(), "annotation", "//pegflow:holds needs the name of the mutex the caller must hold")
		case fd.Recv != nil:
			m.holds[fn] = holdsSpec{name: arg, display: funcDisplayName(fd)}
		default:
			pv := pkg.Types.Scope().Lookup(arg)
			if pv == nil {
				m.problem(fd.Pos(), "annotation", "//pegflow:holds "+arg+" names no package-level variable (non-method holds must guard a package var)")
			} else {
				m.holds[fn] = holdsSpec{name: arg, pkgVar: pv, display: funcDisplayName(fd)}
			}
		}
	}
	if _, ok := markerArg(fd.Doc, blockingMarker); ok {
		if fn, isFn := pkg.Info.Defs[fd.Name].(*types.Func); isFn {
			m.blocking[fn] = true
		}
	}
}

func structFieldNamed(st *ast.StructType, name string) *ast.Field {
	for _, f := range st.Fields.List {
		for _, n := range f.Names {
			if n.Name == name {
				return f
			}
		}
	}
	return nil
}

// siblingVar resolves name among the names declared in the same var
// block, falling back to a package-level variable.
func siblingVar(pkg *Package, gd *ast.GenDecl, name string) types.Object {
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, n := range vs.Names {
			if n.Name == name {
				return pkg.Info.Defs[n]
			}
		}
	}
	return pkg.Types.Scope().Lookup(name)
}

// ownerDisplay renders "Type." for a struct field's owning type, best
// effort (anonymous structs yield "").
func ownerDisplay(pkg *Package, field *types.Var) string {
	scope := pkg.Types.Scope()
	for _, tn := range scope.Names() {
		obj, ok := scope.Lookup(tn).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == field {
				return obj.Name() + "."
			}
		}
	}
	return ""
}

func isChanType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// syncOp classifies calls to the sync package's pairing methods.
type syncOp int

const (
	opNone syncOp = iota
	opLock
	opRLock
	opUnlock
	opRUnlock
	opWGAdd
	opWGDone
	opWGWait
	opOnceDo
)

// syncCall classifies call as a sync.Mutex/RWMutex/WaitGroup/Once
// method call and returns the receiver expression (for key resolution).
// Promoted methods of embedded mutexes resolve too; the receiver
// expression is then the embedding value.
func syncCall(info *types.Info, call *ast.CallExpr) (syncOp, ast.Expr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return opNone, nil
	}
	fn, ok := calleeObj(info, call).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return opNone, nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return opNone, nil
	}
	recvType := namedType(sig.Recv().Type())
	if recvType == nil {
		return opNone, nil
	}
	switch recvType.Obj().Name() + "." + fn.Name() {
	case "Mutex.Lock", "RWMutex.Lock":
		return opLock, sel.X
	case "Mutex.Unlock", "RWMutex.Unlock":
		return opUnlock, sel.X
	case "RWMutex.RLock":
		return opRLock, sel.X
	case "RWMutex.RUnlock":
		return opRUnlock, sel.X
	case "WaitGroup.Add":
		return opWGAdd, sel.X
	case "WaitGroup.Done":
		return opWGDone, sel.X
	case "WaitGroup.Wait":
		return opWGWait, sel.X
	case "Once.Do":
		return opOnceDo, sel.X
	}
	return opNone, nil
}

// syncKey resolves the receiver expression of a sync call to a holdKey;
// ok=false when the receiver is not an identifier-rooted chain.
func syncKey(info *types.Info, recv ast.Expr) (holdKey, bool) {
	root, path, ok := exprRootPath(info, recv)
	if !ok {
		return holdKey{}, false
	}
	return holdKey{root: root, path: path}, true
}

// tokenChan resolves e as a reference to a //pegflow:token channel and
// returns its holdKey.
func (m *concMarkers) tokenChan(info *types.Info, e ast.Expr) (holdKey, bool) {
	e = ast.Unparen(e)
	var obj types.Object
	switch e := e.(type) {
	case *ast.Ident:
		obj = info.Uses[e]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[e.Sel]
		}
	default:
		return holdKey{}, false
	}
	v, ok := obj.(*types.Var)
	if !ok || !m.token[v] {
		return holdKey{}, false
	}
	root, path, ok := exprRootPath(info, e)
	if !ok {
		return holdKey{}, false
	}
	return holdKey{root: root, path: path}, true
}

// funcKey renders a *types.Func as "pkg/path.Name" or
// "pkg/path.Recv.Name", the configuration syntax used by the analyzers
// (matching clonegate/escapegate style).
func funcKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	prefix := fn.Pkg().Path() + "."
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		// Works for concrete and interface methods alike: namedType
		// unwraps the pointer and yields the receiver's named type.
		if n := namedType(sig.Recv().Type()); n != nil {
			return prefix + n.Obj().Name() + "." + fn.Name()
		}
	}
	return prefix + fn.Name()
}
