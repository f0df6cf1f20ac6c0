// Package figures embeds the scenario documents behind every experiments
// figure, so the command runs them from any directory. Each is an ordinary
// scenario document: `pegflow scenario run
// examples/scenarios/figures/paper-grid.json` prints the rows Fig. 4 and
// Fig. 5 are rendered from. Load is the one loader of these documents, for
// cmd/experiments and for core's paper grid alike.
package figures

import (
	"embed"

	"pegflow/internal/scenario"
)

// docs holds every *.json document in this directory.
//
//go:embed *.json
var docs embed.FS

// CanonicalSeed is the seed the documents are written at: Load at seed N
// shifts each of their seeds by N − CanonicalSeed, so loading at it runs
// them as written.
const CanonicalSeed = 42

// Load parses the embedded document name, shifts its workload seeds for
// seed and compiles it.
func Load(name string, seed uint64) (*scenario.Compiled, error) {
	data, err := docs.ReadFile(name)
	if err != nil {
		return nil, err
	}
	doc, err := scenario.Parse(name, data)
	if err != nil {
		return nil, err
	}
	for i := range doc.Workload.Seeds {
		doc.Workload.Seeds[i] += seed - CanonicalSeed
	}
	return scenario.Compile(doc)
}
