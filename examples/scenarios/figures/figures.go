// Package figures embeds the scenario documents behind every experiments
// figure, so the command runs them from any directory. Each is an ordinary
// scenario document: `pegflow scenario run
// examples/scenarios/figures/paper-grid.json` prints the rows Fig. 4 and
// Fig. 5 are rendered from.
package figures

import "embed"

// FS holds every *.json document in this directory.
//
//go:embed *.json
var FS embed.FS
