package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// DetSource forbids nondeterministic inputs inside the simulation
// boundary: wall-clock reads, the global math/rand source, environment
// variables, fmt formatting of map values, and go statements — a goroutine
// is ordered by the runtime scheduler, an ambient input like the wall
// clock; a run is single-threaded and concurrency lives above it, in
// pool.ForEach over independent cells. A simulation cell must be
// a pure function of (scenario, seed) — the byte-identical-across-workers
// guarantee every golden test leans on — so any ambient input is a bug
// even when it happens to be harmless today. Legitimate uses (the
// real-time local executor) are excused in the allowlist file, each with
// a justification.
type DetSource struct {
	// Packages are the boundary package patterns ("..."-suffix subtrees
	// allowed).
	Packages []string
}

func (*DetSource) Name() string { return "detsource" }
func (*DetSource) Doc() string {
	return "forbid time.Now, global math/rand, os.Getenv, map-formatting fmt calls and go statements inside the simulation boundary"
}

// randConstructors are the math/rand functions that build seeded private
// generators — the deterministic way to use the package.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func (d *DetSource) Run(prog *Program, report func(pos token.Position, key, message string)) error {
	for _, pkg := range prog.Module {
		if !matchPath(pkg.Path, d.Packages) {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					d.checkCall(prog, pkg, n, report)
				case *ast.GoStmt:
					report(prog.Fset.Position(n.Pos()), "go",
						"go statement inside the simulation boundary: the scheduler would order its effects; a run is one goroutine on one virtual clock")
				}
				return true
			})
		}
	}
	return nil
}

func (d *DetSource) checkCall(prog *Program, pkg *Package, call *ast.CallExpr, report func(pos token.Position, key, message string)) {
	obj := calleeObj(pkg.Info, call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods (e.g. (*rand.Rand).Intn) are fine
	}
	pos := prog.Fset.Position(call.Pos())
	path, name := fn.Pkg().Path(), fn.Name()
	key := path + "." + name
	switch path {
	case "time":
		switch name {
		case "Now", "Since", "Until":
			report(pos, "time."+name, "time."+name+" inside the simulation boundary: virtual time must come from the DES clock, not the wall clock")
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[name] {
			report(pos, key, key+" uses the global process-wide source; build a seeded generator with "+path+".New instead")
		}
	case "os":
		switch name {
		case "Getenv", "LookupEnv", "Environ":
			report(pos, "os."+name, "os."+name+" inside the simulation boundary: environment reads make results machine-dependent")
		}
	case "fmt":
		d.checkFmtCall(prog, pkg, call, name, report)
	}
}

// formattedFmtFuncs maps fmt functions to the index of their format-string
// argument; unformatted print variants are handled separately.
var formattedFmtFuncs = map[string]int{
	"Sprintf": 0, "Printf": 0, "Errorf": 0, "Fprintf": 1, "Appendf": 1,
}

var unformattedFmtFuncs = map[string]bool{
	"Sprint": true, "Sprintln": true, "Print": true, "Println": true,
	"Fprint": true, "Fprintln": true,
}

// checkFmtCall flags fmt calls that format a map value: the %v rendering
// iterates the map, and although fmt sorts keys these strings routinely
// become cache keys or log lines whose stability must not hinge on fmt
// internals — the sim boundary builds keys explicitly instead.
func (d *DetSource) checkFmtCall(prog *Program, pkg *Package, call *ast.CallExpr, name string, report func(pos token.Position, key, message string)) {
	argStart := 0
	if idx, ok := formattedFmtFuncs[name]; ok {
		if len(call.Args) <= idx {
			return
		}
		tv, ok := pkg.Info.Types[call.Args[idx]]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
			return
		}
		format := constant.StringVal(tv.Value)
		if !strings.Contains(format, "%v") && !strings.Contains(format, "%+v") && !strings.Contains(format, "%#v") {
			return
		}
		argStart = idx + 1
	} else if unformattedFmtFuncs[name] {
		// Fprint family: first arg is the writer, never the payload.
		if strings.HasPrefix(name, "F") {
			argStart = 1
		}
	} else {
		return
	}
	for _, arg := range call.Args[argStart:] {
		t := pkg.Info.TypeOf(arg)
		if t == nil {
			continue
		}
		if _, isMap := t.Underlying().(*types.Map); isMap {
			pos := prog.Fset.Position(call.Pos())
			report(pos, "fmt."+name+"(map)",
				"fmt."+name+" formats a map value inside the simulation boundary; render keys in an explicit deterministic order instead")
			return
		}
	}
}
