package pegflow_test

import (
	"bufio"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pegflow/internal/analysis"
)

// TestExportedSurface: every exported package-level name of a non-main
// package, and every exported method of its exported types, has a
// production caller. A use counts when it is in a non-test file of another
// package (cmd/ and bench/ included); a use of an instantiated generic
// counts for its origin. Without one, the name needs an entry in
// surface.allow, one line `<pkg.Name> -- <reason>`. These need none:
//   - a type reached through the type of a used or allow-listed name (a
//     parameter, a result, a field, an element);
//   - a method that its type needs to satisfy an interface the module
//     declares or names, or fmt.Stringer or error.
//
// An unexported package-level name needs a use in a non-test file of its own
// package. An allow entry fails when its name is gone or needs no entry. A
// name documented `Deprecated:` may keep non-test users only under bench/.
func TestExportedSurface(t *testing.T) {
	prog, err := analysis.Load(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	benchDir, err := filepath.Abs("bench")
	if err != nil {
		t.Fatal(err)
	}
	s := newSurface(prog, benchDir+string(filepath.Separator))
	allow := readAllow(t, "surface.allow")

	decls := map[string]types.Object{} // "pkg.Name" or "pkg.Type.Method"
	checked := map[string]string{}     // package name -> import path
	for _, p := range prog.Module {
		if p.Types.Name() == "main" {
			continue
		}
		if other, ok := checked[p.Types.Name()]; ok {
			t.Fatalf("packages %s and %s share the name %s; surface.allow keys by package name", other, p.Path, p.Types.Name())
		}
		checked[p.Types.Name()] = p.Path
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			key := p.Types.Name() + "." + name
			decls[key] = obj
			if tn, ok := obj.(*types.TypeName); ok && tn.Exported() && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok {
					for i := 0; i < named.NumMethods(); i++ {
						if m := named.Method(i); m.Exported() {
							decls[key+"."+m.Name()] = m
						}
					}
				}
			}
		}
	}

	roots := map[types.Object]bool{}
	for key, obj := range decls {
		if s.cross[obj] || allow[key] != "" {
			roots[obj] = true
		}
	}
	reached := s.reach(roots, nil)

	keys := make([]string, 0, len(decls))
	for key := range decls {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		obj := decls[key]
		if !obj.Exported() {
			if len(s.usesOf[obj]) == 0 {
				t.Errorf("%s: %s has no use in a non-test file; delete it", prog.Fset.Position(obj.Pos()), key)
			}
			continue
		}
		if allow[key] != "" || s.cross[obj] || reached[obj] || s.satisfies(obj) {
			continue
		}
		if len(s.usesOf[obj]) > 0 {
			t.Errorf("%s: %s is used only inside its package; unexport it", prog.Fset.Position(obj.Pos()), key)
		} else {
			t.Errorf("%s: %s has no use in a non-test file; delete it, or move it into its package's tests", prog.Fset.Position(obj.Pos()), key)
		}
	}

	allowKeys := make([]string, 0, len(allow))
	for key := range allow {
		allowKeys = append(allowKeys, key)
	}
	sort.Strings(allowKeys)
	for _, key := range allowKeys {
		obj, ok := decls[key]
		switch {
		case !ok:
			t.Errorf("surface.allow: %s is not declared; drop the entry", key)
		case s.cross[obj]:
			t.Errorf("surface.allow: %s has a caller in another package; drop the entry", key)
		case s.satisfies(obj) || s.reach(roots, obj)[obj]:
			t.Errorf("surface.allow: %s is reached through another name's type or satisfies an interface; drop the entry", key)
		}
	}

	for _, d := range s.deprecated {
		uses := s.usesOf[d.obj]
		sort.Slice(uses, func(i, j int) bool {
			if uses[i].Filename != uses[j].Filename {
				return uses[i].Filename < uses[j].Filename
			}
			return uses[i].Offset < uses[j].Offset
		})
		for _, pos := range uses {
			if !strings.HasPrefix(pos.Filename, s.benchDir) {
				t.Errorf("%s: uses %s, which is Deprecated: only bench/ may still name it", pos, d.name)
			}
		}
	}
}

// surface is the census TestExportedSurface reads: where each object is
// used in a non-test file, and which objects have such a use in another
// package.
type surface struct {
	usesOf     map[types.Object][]token.Position
	cross      map[types.Object]bool
	ifaces     []*types.Interface
	deprecated []deprecatedName
	benchDir   string
}

type deprecatedName struct {
	name string
	obj  types.Object
}

func newSurface(prog *analysis.Program, benchDir string) *surface {
	s := &surface{
		usesOf:   map[types.Object][]token.Position{},
		cross:    map[types.Object]bool{},
		benchDir: benchDir,
	}
	seen := map[*types.Interface]bool{}
	addIface := func(obj types.Object) {
		tn, ok := obj.(*types.TypeName)
		if !ok {
			return
		}
		if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
			return
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			s.ifaces = append(s.ifaces, it)
		}
	}
	addIface(types.Universe.Lookup("error"))
	addIface(prog.Pkgs["fmt"].Types.Scope().Lookup("Stringer"))

	for _, p := range prog.Module {
		for _, name := range p.Types.Scope().Names() {
			addIface(p.Types.Scope().Lookup(name))
		}
		for id, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			addIface(obj)
			if obj.Pkg() != nil && obj.Pkg() != p.Types {
				s.cross[obj] = true
			}
			s.usesOf[obj] = append(s.usesOf[obj], prog.Fset.Position(id.Pos()))
		}
		for _, f := range p.Files {
			s.collectDeprecated(p, f)
		}
	}
	sort.Slice(s.deprecated, func(i, j int) bool { return s.deprecated[i].name < s.deprecated[j].name })
	return s
}

// collectDeprecated records every name in f whose doc comment has a
// Deprecated: paragraph: functions, types, constants, variables and
// struct fields.
func (s *surface) collectDeprecated(p *analysis.Package, f *ast.File) {
	add := func(doc *ast.CommentGroup, ids ...*ast.Ident) {
		if doc == nil || !strings.Contains(doc.Text(), "Deprecated:") {
			return
		}
		for _, id := range ids {
			if obj := p.Info.Defs[id]; obj != nil {
				s.deprecated = append(s.deprecated, deprecatedName{p.Types.Name() + "." + id.Name, obj})
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			add(n.Doc, n.Name)
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add(n.Doc, spec.Name)
					add(spec.Doc, spec.Name)
				case *ast.ValueSpec:
					add(n.Doc, spec.Names...)
					add(spec.Doc, spec.Names...)
				}
			}
		case *ast.Field:
			add(n.Doc, n.Names...)
		}
		return true
	})
}

// satisfies reports whether obj is a method its receiver type needs to
// implement one of the interfaces the module declares or names.
func (s *surface) satisfies(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); !ok || named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range s.ifaces {
		if !types.Implements(t, it) && !types.Implements(types.NewPointer(t), it) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() {
				return true
			}
		}
	}
	return false
}

// reach returns the module types reached through the types of roots,
// leaving out skip itself as a root.
func (s *surface) reach(roots map[types.Object]bool, skip types.Object) map[types.Object]bool {
	reached := map[types.Object]bool{}
	var walk func(types.Type)
	walk = func(t types.Type) {
		switch t := t.(type) {
		case *types.Named:
			obj := t.Obj()
			if o, ok := obj.Type().(*types.Named); ok {
				obj = o.Origin().Obj()
			}
			if args := t.TypeArgs(); args != nil {
				for i := 0; i < args.Len(); i++ {
					walk(args.At(i))
				}
			}
			if reached[obj] {
				return
			}
			reached[obj] = true
			walk(t.Underlying())
		case *types.Alias:
			walk(types.Unalias(t))
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				walk(t.Method(i).Type())
			}
		}
	}
	for obj := range roots {
		if obj == skip {
			continue
		}
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			walk(tn.Type().Underlying())
			continue
		}
		walk(obj.Type())
	}
	return reached
}

// readAllow parses surface.allow: one `<pkg.Name> -- <reason>` per line;
// blank lines and lines starting with # are skipped.
func readAllow(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		key, reason, ok := strings.Cut(text, " -- ")
		key, reason = strings.TrimSpace(key), strings.TrimSpace(reason)
		if !ok || key == "" || reason == "" {
			t.Fatalf("%s:%d: want `<pkg.Name> -- <reason>`, got %q", path, line, text)
		}
		if _, dup := allow[key]; dup {
			t.Fatalf("%s:%d: %s is listed twice", path, line, key)
		}
		allow[key] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}
