// Command pegflow-lint runs pegflow's project-specific static-analysis
// suite: the mechanical enforcement of the determinism and clone-before-
// mutate invariants (see docs/LINTING.md).
//
// Usage:
//
//	pegflow-lint [flags] [packages]
//
// With no packages it analyzes ./... from the working directory (or -C).
// The exit code is 0 when clean, 1 when findings were reported, 2 on
// usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"pegflow/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("pegflow-lint", flag.ContinueOnError)
	var (
		jsonOut = fs.Bool("json", false, "emit findings as a JSON array on stdout")
		dir     = fs.String("C", ".", "directory to analyze from (module root for ./... patterns)")
		list    = fs.Bool("list", false, "list analyzers and exit")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: pegflow-lint [flags] [packages]\n\n")
		fmt.Fprintf(fs.Output(), "Runs the pegflow invariant analyzers over the module (default ./...).\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	all := analysis.Analyzers()
	if *list {
		for _, a := range all {
			fmt.Printf("%-12s %s\n", a.Name(), a.Doc())
		}
		return 0
	}

	prog, err := analysis.Load(*dir, fs.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pegflow-lint: %v\n", err)
		return 2
	}

	suite := &analysis.Suite{Analyzers: all}
	findings, err := suite.Run(prog)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pegflow-lint: %v\n", err)
		return 2
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []analysis.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(os.Stderr, "pegflow-lint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
		if len(findings) > 0 {
			fmt.Fprintf(os.Stderr, "pegflow-lint: %d finding(s)\n", len(findings))
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}
