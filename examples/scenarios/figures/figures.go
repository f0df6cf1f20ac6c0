// Package figures embeds the scenario documents behind the experiments
// figures that are documents (-fig seeds and -fig ensemble), so the command
// runs them from any directory. Each is an ordinary scenario document:
// `pegflow scenario run examples/scenarios/figures/seeds.json` prints the
// rows the figure is rendered from.
package figures

import "embed"

// FS holds every *.json document in this directory.
//
//go:embed *.json
var FS embed.FS
