package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// EscapeGuard declares the hot functions of one package that must stay
// free of heap escapes.
type EscapeGuard struct {
	// Pkg is the import path.
	Pkg string
	// Funcs lists guarded functions as "Name" or "Recv.Name".
	Funcs []string
}

// EscapeGate generalizes the narrow TestAllocs benchmarks to the whole
// kernel: it compiles the guarded packages with -gcflags=-m, parses the
// compiler's escape-analysis diagnostics, and reports any value that
// escapes to the heap inside a declared hot function. Escapes on panic
// paths (arguments of a panic call) are exempt — they allocate only when
// the simulation is already dead. Unlike allocs/op measurements this
// catches the escape at the exact source position, before it costs a
// benchmark regression to notice.
type EscapeGate struct {
	Guards []EscapeGuard
}

func (*EscapeGate) Name() string { return "escapegate" }
func (*EscapeGate) Doc() string {
	return "assert declared hot kernel functions have zero non-panic heap escapes (go build -gcflags=-m)"
}

// escapeLine matches `file.go:line:col: msg` diagnostics.
var escapeLine = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.+)$`)

func (g *EscapeGate) Run(prog *Program, report func(pos token.Position, message string)) error {
	if len(g.Guards) == 0 {
		return nil
	}
	guarded := make(map[string]map[string]bool, len(g.Guards)) // pkg -> func set
	args := []string{"build", "-gcflags=-m"}
	for _, gd := range g.Guards {
		pkg := prog.Pkgs[gd.Pkg]
		if pkg == nil {
			// The load was narrowed to a package subset that excludes this
			// guard. Full-module runs cover every guard; the suite's
			// self-check test asserts each guarded package still exists.
			continue
		}
		set := make(map[string]bool, len(gd.Funcs))
		for _, fn := range gd.Funcs {
			if !funcExists(pkg, fn) {
				return fmt.Errorf("guarded function %s.%s does not exist (stale guard list?)", gd.Pkg, fn)
			}
			set[fn] = true
		}
		guarded[gd.Pkg] = set
		args = append(args, gd.Pkg)
	}
	if len(guarded) == 0 {
		return nil
	}

	cmd := exec.Command("go", args...)
	cmd.Dir = prog.Dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build -gcflags=-m: %v\n%s", err, stderr.String())
	}

	// Map each guarded package's absolute file paths to the package.
	fileToPkg := map[string]*Package{}
	for pkgPath := range guarded {
		pkg := prog.Pkgs[pkgPath]
		for _, f := range pkg.Files {
			fileToPkg[prog.Fset.Position(f.Pos()).Filename] = pkg
		}
	}

	for _, line := range strings.Split(stderr.String(), "\n") {
		m := escapeLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		msg := m[4]
		if !strings.HasSuffix(msg, "escapes to heap") && !strings.HasPrefix(msg, "moved to heap:") {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(prog.Dir, file)
		}
		file = filepath.Clean(file)
		abs, err := filepath.Abs(file)
		if err == nil {
			file = abs
		}
		pkg, ok := fileToPkg[file]
		if !ok {
			continue
		}
		lineNo, _ := strconv.Atoi(m[2])
		colNo, _ := strconv.Atoi(m[3])
		pos := posAt(prog.Fset, file, lineNo, colNo)
		if pos == token.NoPos {
			continue
		}
		fd := enclosingFuncDecl(pkg.Files, pos)
		if fd == nil {
			continue
		}
		name := funcDisplayName(fd)
		if !guarded[pkg.Path][name] {
			continue
		}
		if onPanicPath(pkg.Info, fd, pos) {
			continue
		}
		report(prog.Fset.Position(pos),
			fmt.Sprintf("heap escape in guarded kernel function %s: %s — the hot path must stay allocation-free", name, msg))
	}
	return nil
}

// funcExists reports whether the package declares a function matching the
// "Name" / "Recv.Name" spec, so stale guard lists fail loudly instead of
// guarding nothing.
func funcExists(pkg *Package, spec string) bool {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && funcDisplayName(fd) == spec {
				return true
			}
		}
	}
	return false
}

// posAt converts file:line:col to a token.Pos within fset.
func posAt(fset *token.FileSet, file string, line, col int) token.Pos {
	var tf *token.File
	fset.Iterate(func(f *token.File) bool {
		if f.Name() == file {
			tf = f
			return false
		}
		return true
	})
	if tf == nil || line < 1 || line > tf.LineCount() {
		return token.NoPos
	}
	p := tf.LineStart(line)
	return p + token.Pos(col-1)
}

// onPanicPath reports whether pos sits inside the arguments of a panic
// call: those escapes only allocate when the program is already aborting.
func onPanicPath(info *types.Info, fd *ast.FuncDecl, pos token.Pos) bool {
	for _, n := range nodesAt(fd, pos) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			continue
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			continue
		}
		if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
			return true
		}
	}
	return false
}
