// The docs gate: every internal package must carry a package comment in a
// dedicated doc.go, so `go doc pegflow/internal/<pkg>` always tells the
// package's story and the README's architecture narrative cannot silently
// outrun the code. CI runs this as part of the ordinary test suite.
package pegflow_test

import (
	"bytes"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// goPackageDirs returns every directory under root containing non-test Go
// files.
func goPackageDirs(t *testing.T, root string) []string {
	t.Helper()
	seen := make(map[string]bool)
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		// testdata is invisible to the go tool (and holds lint fixtures
		// that are deliberately undocumented); don't descend.
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

func TestEveryInternalPackageHasDocGo(t *testing.T) {
	for _, dir := range goPackageDirs(t, "internal") {
		docPath := filepath.Join(dir, "doc.go")
		if _, err := os.Stat(docPath); err != nil {
			t.Errorf("%s: no doc.go — add one with the package comment (docs gate)", dir)
			continue
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, docPath, nil, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Errorf("%s: %v", docPath, err)
			continue
		}
		name := f.Name.Name
		if f.Doc == nil || strings.TrimSpace(f.Doc.Text()) == "" {
			t.Errorf("%s: doc.go has no package comment", dir)
			continue
		}
		if !strings.HasPrefix(f.Doc.Text(), "Package "+name+" ") &&
			!strings.HasPrefix(f.Doc.Text(), "Package "+name+"\n") {
			t.Errorf("%s: package comment must start with %q (go doc convention), got %q",
				dir, "Package "+name, firstLine(f.Doc.Text()))
		}
	}
}

// TestNoDuplicatePackageComments keeps the package comment in doc.go
// alone: any comment block attached to another file's package clause —
// whether or not it starts with "Package" — is a doc comment go/doc
// concatenates into the package documentation in file-name order,
// garbling the story. File-level commentary is fine; it just needs a
// blank line before the package clause.
func TestNoDuplicatePackageComments(t *testing.T) {
	for _, dir := range goPackageDirs(t, "internal") {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if name == "doc.go" || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.PackageClauseOnly)
			if err != nil {
				t.Errorf("%s: %v", path, err)
				continue
			}
			if f.Doc != nil {
				t.Errorf("%s: comment is attached to the package clause and leaks into `go doc` (package comments belong in %s/doc.go; separate file commentary with a blank line)", path, dir)
			}
		}
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// TestNoDanglingArtifactReferences keeps the docs and the build files
// honest about what exists: every BENCH_*.json they name is a checked-in
// file, and every `make <target>` they tell the reader to run — in
// backticks, or as a command at the start of a line — is a target of the
// Makefile, as is every name in its .PHONY list. bench/ documents the
// artifacts the harness replaced and is not scanned.
func TestNoDanglingArtifactReferences(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := make(map[string]bool)
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllSubmatch(makefile, -1) {
		targets[string(m[1])] = true
	}
	if phony := regexp.MustCompile(`(?m)^\.PHONY:(.*)$`).FindSubmatch(makefile); phony == nil {
		t.Error("Makefile: no .PHONY line")
	} else {
		for _, name := range strings.Fields(string(phony[1])) {
			if !targets[name] {
				t.Errorf("Makefile: .PHONY lists %q, which is not a target", name)
			}
		}
	}

	files := []string{"README.md", "Makefile", filepath.Join(".github", "workflows", "ci.yml")}
	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, docs...)
	artifact := regexp.MustCompile(`BENCH_[A-Za-z0-9_]+\.json`)
	command := regexp.MustCompile("(?m)(?:`|^[ \t#]*(?:run:[ \t]*)?)make ([a-z][a-z0-9-]*)")
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range artifact.FindAll(data, -1) {
			if _, err := os.Stat(string(name)); err != nil {
				t.Errorf("%s names %s, which is not checked in", path, name)
			}
		}
		for _, m := range command.FindAllSubmatch(data, -1) {
			if !targets[string(m[1])] {
				t.Errorf("%s says to run `make %s`, which is not a Makefile target", path, m[1])
			}
		}
	}
}

// TestNoTrackedBinaries: the repository tracks sources, not what building
// them leaves behind — no tracked file is an ELF executable or larger than
// 1 MiB (a 9.8 MB `pegflow` binary rode along in one commit; .gitignore now
// names the root-level command binaries). Skipped outside a git checkout.
func TestNoTrackedBinaries(t *testing.T) {
	out, err := exec.Command("git", "ls-files", "-z").Output()
	if err != nil {
		t.Skipf("not a git checkout: %v", err)
	}
	for _, name := range strings.Split(strings.TrimRight(string(out), "\x00"), "\x00") {
		f, err := os.Open(name)
		if err != nil {
			continue // tracked but deleted in the working tree
		}
		magic := make([]byte, 4)
		n, _ := io.ReadFull(f, magic)
		info, err := f.Stat()
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(magic[:n], []byte("\x7fELF")) {
			t.Errorf("%s is a tracked ELF binary: git rm --cached it and list it in .gitignore", name)
		} else if info.Size() > 1<<20 {
			t.Errorf("%s is tracked and %d bytes (> 1 MiB): build outputs and data dumps stay out of the repository", name, info.Size())
		}
	}
}
