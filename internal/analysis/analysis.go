package analysis

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one analyzer diagnostic.
type Finding struct {
	// Analyzer names the analyzer that produced the finding.
	Analyzer string `json:"analyzer"`
	// File is the source file, relative to the analyzed module root when
	// possible.
	File string `json:"file"`
	// Line and Col locate the finding (1-based).
	Line int `json:"line"`
	Col  int `json:"col"`
	// Message is the human-readable diagnostic.
	Message string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Analyzer is one whole-program check.
type Analyzer interface {
	// Name identifies the analyzer in -list output and in its findings.
	Name() string
	// Doc is a one-line description of the invariant the analyzer guards.
	Doc() string
	// Run inspects the program and reports findings. Position and
	// analyzer stamping are handled by the caller's report func.
	Run(prog *Program, report func(pos token.Position, message string)) error
}

// Suite is a configured set of analyzers.
type Suite struct {
	Analyzers []Analyzer
}

// Run executes every analyzer over the program and returns every finding
// sorted by position. Nothing is exempt: a finding is fixed, not excused.
func (s *Suite) Run(prog *Program) ([]Finding, error) {
	var out []Finding
	for _, a := range s.Analyzers {
		name := a.Name()
		report := func(pos token.Position, message string) {
			out = append(out, Finding{
				Analyzer: name,
				File:     relFile(prog.Dir, pos.Filename),
				Line:     pos.Line,
				Col:      pos.Column,
				Message:  message,
			})
		}
		if err := a.Run(prog, report); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out, nil
}

// relFile rewrites filename relative to dir (slash-separated) when it is
// inside it, for stable, machine-independent finding output.
func relFile(dir, filename string) string {
	if dir == "" {
		return filepath.ToSlash(filename)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return filepath.ToSlash(filename)
	}
	if rel, err := filepath.Rel(abs, filename); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(filename)
}

// matchPath reports whether an import path matches any pattern. Patterns
// are exact import paths, or subtree patterns ending in "/..." which
// match the prefix package and everything below it.
func matchPath(path string, patterns []string) bool {
	for _, p := range patterns {
		if prefix, ok := strings.CutSuffix(p, "/..."); ok {
			if path == prefix || strings.HasPrefix(path, prefix+"/") {
				return true
			}
			continue
		}
		if path == p {
			return true
		}
	}
	return false
}
