package analysis

import (
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestRepoLintsClean is the self-check the CI lint job mirrors: the full
// production suite, with the repo's committed allowlist, finds nothing in
// the repo itself. Any new finding here means either a real invariant
// violation or a needed (justified) allowlist entry.
func TestRepoLintsClean(t *testing.T) {
	root := moduleRoot(t)
	prog, err := Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	allow, err := LoadAllowlist(filepath.Join(root, "lint.allow"))
	if err != nil {
		t.Fatal(err)
	}
	suite := &Suite{Analyzers: Analyzers(), Allow: allow}
	findings, err := suite.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("repo is not lint-clean: %s", f.String())
	}
}

// TestEscapeGuardsCoverLoadedPackages asserts every production guard
// names a package that actually exists, so renaming a kernel package
// cannot silently drop its coverage.
func TestEscapeGuardsCoverLoadedPackages(t *testing.T) {
	prog, err := Load(moduleRoot(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range NewEscapeGate().Guards {
		if prog.Pkgs[g.Pkg] == nil {
			t.Errorf("escapegate guard names package %s, which ./... did not load", g.Pkg)
		}
	}
}

func writeAllow(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "lint.allow")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestAllowlistParsing(t *testing.T) {
	t.Run("missing file is empty", func(t *testing.T) {
		al, err := LoadAllowlist(filepath.Join(t.TempDir(), "nope"))
		if err != nil || len(al.Entries) != 0 {
			t.Fatalf("got %v, %v", al.Entries, err)
		}
	})

	t.Run("entry without justification is rejected", func(t *testing.T) {
		path := writeAllow(t, "detsource internal/engine/local.go time.Now\n")
		if _, err := LoadAllowlist(path); err == nil || !strings.Contains(err.Error(), "justification") {
			t.Fatalf("want justification parse error, got %v", err)
		}
	})

	t.Run("wrong field count is rejected", func(t *testing.T) {
		path := writeAllow(t, "detsource time.Now -- why\n")
		if _, err := LoadAllowlist(path); err == nil {
			t.Fatal("want field-count parse error, got nil")
		}
	})

	t.Run("comments and blanks are skipped", func(t *testing.T) {
		path := writeAllow(t, "# header\n\ndetsource internal/engine/local.go time.Now -- wall clock\n")
		al, err := LoadAllowlist(path)
		if err != nil || len(al.Entries) != 1 {
			t.Fatalf("got %v, %v", al.Entries, err)
		}
		e := al.Entries[0]
		if e.Analyzer != "detsource" || e.Key != "time.Now" || e.Justification != "wall clock" {
			t.Fatalf("bad entry: %+v", e)
		}
	})
}

func TestAllowlistMatchingAndStaleness(t *testing.T) {
	al := &Allowlist{Path: "lint.allow", Entries: []*AllowEntry{
		{Analyzer: "detsource", File: "internal/engine/local.go", Key: "time.Now", Justification: "wall clock", line: 1},
		{Analyzer: "detsource", File: "internal/engine/local.go", Key: "time.Since", Justification: "wall clock", line: 2},
	}}
	f := Finding{Analyzer: "detsource", File: "internal/engine/local.go", Key: "time.Now"}
	if !al.permits(f) {
		t.Fatal("entry did not permit its matching finding")
	}
	if al.permits(Finding{Analyzer: "detrange", File: "internal/engine/local.go", Key: "time.Now"}) {
		t.Fatal("entry leaked across analyzers")
	}
	if al.permits(Finding{Analyzer: "detsource", File: "internal/sim/des/des.go", Key: "time.Now"}) {
		t.Fatal("entry leaked across files")
	}

	// time.Since never matched: stale when detsource ran, silent when not.
	stale := al.unused(map[string]bool{"detsource": true})
	if len(stale) != 1 || !strings.Contains(stale[0].Message, "time.Since") {
		t.Fatalf("want one stale finding for time.Since, got %v", stale)
	}
	if got := al.unused(map[string]bool{"detrange": true}); len(got) != 0 {
		t.Fatalf("stale reporting fired for a disabled analyzer: %v", got)
	}
}

// silentAnalyzer reports nothing: a suite member whose name is all that
// matters.
type silentAnalyzer string

func (a silentAnalyzer) Name() string { return string(a) }
func (silentAnalyzer) Doc() string    { return "reports nothing" }
func (silentAnalyzer) Run(*Program, func(token.Position, string, string)) error {
	return nil
}

// TestAllowlistUnknownAnalyzer: an entry naming an analyzer that does not
// exist — a typo, or one since deleted — is a finding even though that
// analyzer did not run, while an entry for a real analyzer left out of the
// run (-disable) stays silent.
func TestAllowlistUnknownAnalyzer(t *testing.T) {
	al := &Allowlist{Path: "lint.allow", Entries: []*AllowEntry{
		{Analyzer: "detsource", File: "internal/engine/local.go", Key: "time.Now", Justification: "disabled, not unknown", line: 1},
		{Analyzer: "lockhld", File: "internal/scenario/run.go", Key: "emit", Justification: "typo", line: 2},
		{Analyzer: "slabcopy", File: "internal/engine/queue.go", Key: "readyQueue", Justification: "deleted analyzer", line: 3},
	}}
	suite := &Suite{Analyzers: []Analyzer{silentAnalyzer("detrange")}, Allow: al}
	findings, err := suite.Run(&Program{})
	if err != nil {
		t.Fatal(err)
	}
	var lines []int
	for _, f := range findings {
		if f.Analyzer != "allowlist" || !strings.Contains(f.Message, "unknown analyzer") {
			t.Errorf("unexpected finding: %s", f)
		}
		lines = append(lines, f.Line)
	}
	if !slices.Equal(lines, []int{2, 3}) {
		t.Errorf("findings on allowlist lines %v, want 2 and 3 (the typo and the deleted analyzer)", lines)
	}
}
