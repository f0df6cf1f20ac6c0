package analysis

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// moduleRoot returns the pegflow module root (this package lives at
// internal/analysis).
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// wantRe extracts the expectation from a `// want "regex"` or
// // want `regex` comment.
var wantRe = regexp.MustCompile("// want\\s+[\"`](.+)[\"`]")

// expectation is one `// want` comment in a fixture file.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// runFixture loads the fixture package pattern, runs the single analyzer,
// and matches findings 1:1 against the fixture's `// want` comments. A
// missing finding means the analyzer has been neutered; an extra one
// means it over-reports. Both fail.
func runFixture(t *testing.T, a Analyzer, pattern string) {
	t.Helper()
	prog, err := Load(moduleRoot(t), pattern)
	if err != nil {
		t.Fatal(err)
	}
	suite := &Suite{Analyzers: []Analyzer{a}}
	findings, err := suite.Run(prog)
	if err != nil {
		t.Fatal(err)
	}

	var wants []*expectation
	for _, pkg := range prog.Module {
		if !strings.Contains(pkg.Path, "testdata") {
			continue
		}
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want regex %q: %v", m[1], err)
					}
					pos := prog.Fset.Position(c.Pos())
					wants = append(wants, &expectation{
						file: relFile(prog.Dir, pos.Filename),
						line: pos.Line,
						re:   re,
					})
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no // want comments", pattern)
	}

	var unexpected []string
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == f.File && w.line == f.Line && w.re.MatchString(f.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			unexpected = append(unexpected, f.String())
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected finding matching %q was not reported (analyzer neutered?)", w.file, w.line, w.re)
		}
	}
	for _, u := range unexpected {
		t.Errorf("unexpected finding: %s", u)
	}
}

func fixturePath(analyzer string) string {
	return "./internal/analysis/testdata/src/" + analyzer + "/a"
}

func TestDetSourceFixture(t *testing.T) {
	a := &DetSource{Packages: []string{"pegflow/internal/analysis/testdata/src/detsource/..."}}
	runFixture(t, a, fixturePath("detsource"))
}

func TestDetRangeFixture(t *testing.T) {
	a := &DetRange{Packages: []string{"pegflow/internal/analysis/testdata/src/detrange/..."}}
	runFixture(t, a, fixturePath("detrange"))
}

func TestCloneGateFixture(t *testing.T) {
	a := NewCloneGate()
	a.AllowedFuncs = map[string]string{
		"pegflow/internal/analysis/testdata/src/clonegate/a.freshCloneMutation": "fixture: mutates its own fresh clone",
	}
	runFixture(t, a, fixturePath("clonegate"))
}

func TestGuardFieldFixture(t *testing.T) {
	runFixture(t, &GuardField{}, fixturePath("guardfield"))
}

func TestPairPathFixture(t *testing.T) {
	runFixture(t, &PairPath{}, fixturePath("pairpath"))
}

func TestCtxFlowFixture(t *testing.T) {
	a := &CtxFlow{Packages: []string{"pegflow/internal/analysis/testdata/src/ctxflow/..."}}
	runFixture(t, a, fixturePath("ctxflow"))
}

func TestLockHoldFixture(t *testing.T) {
	a := &LockHold{
		Packages:      []string{"pegflow/internal/analysis/testdata/src/lockhold/..."},
		BlockingCalls: []string{"pegflow/internal/analysis/testdata/src/lockhold/a.simulate"},
	}
	runFixture(t, a, fixturePath("lockhold"))
}

// TestFixturesAreOutsideRepoLintScope pins the property the self-check
// relies on: `go list ./...` never expands into testdata, so the
// deliberately broken fixtures cannot dirty the repo lint.
func TestFixturesAreOutsideRepoLintScope(t *testing.T) {
	prog, err := Load(moduleRoot(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range prog.Module {
		if strings.Contains(pkg.Path, "testdata") {
			t.Fatalf("testdata package %s leaked into ./... load", pkg.Path)
		}
	}
}
