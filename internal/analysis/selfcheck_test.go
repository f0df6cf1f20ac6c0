package analysis

import "testing"

// TestRepoLintsClean is the self-check the CI lint job mirrors: the full
// production suite finds nothing in the repo itself. There is no exemption
// file, so any finding here is an invariant violation to fix.
func TestRepoLintsClean(t *testing.T) {
	prog, err := Load(moduleRoot(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	suite := &Suite{Analyzers: Analyzers()}
	findings, err := suite.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("repo is not lint-clean: %s", f.String())
	}
}
