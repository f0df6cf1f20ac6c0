package analysis

import (
	"bufio"
	"fmt"
	"os"
	"strings"
)

// AllowEntry is one justified suppression.
type AllowEntry struct {
	// Analyzer is the analyzer the entry applies to.
	Analyzer string
	// File is a slash-separated path suffix the finding's file must end
	// with (normally the module-relative path).
	File string
	// Key must equal the finding's Key (e.g. "time.Now").
	Key string
	// Justification explains why the use is legitimate. Required: an
	// entry without a reason is a parse error.
	Justification string

	line int
	used bool
}

// Allowlist is a parsed allowlist file. The format is line-oriented:
//
//	# comment
//	<analyzer> <file-suffix> <key> -- <justification>
//
// e.g.
//
//	detsource internal/engine/local.go time.Now -- real-time executor measures wall clock
//
// Keys are position-independent so entries survive unrelated edits, and
// entries that stop matching anything are themselves reported as findings
// (see Suite.Run).
type Allowlist struct {
	Path    string
	Entries []*AllowEntry
}

// LoadAllowlist parses the allowlist at path. A missing file yields an
// empty allowlist, so repos without exemptions need no file at all.
func LoadAllowlist(path string) (*Allowlist, error) {
	al := &Allowlist{Path: path}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return al, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		spec, just, ok := strings.Cut(line, " -- ")
		if !ok || strings.TrimSpace(just) == "" {
			return nil, fmt.Errorf("%s:%d: allowlist entry needs a ' -- justification'", path, lineno)
		}
		fields := strings.Fields(spec)
		if len(fields) != 3 {
			return nil, fmt.Errorf("%s:%d: want '<analyzer> <file> <key> -- <justification>', got %d fields", path, lineno, len(fields))
		}
		al.Entries = append(al.Entries, &AllowEntry{
			Analyzer:      fields[0],
			File:          fields[1],
			Key:           fields[2],
			Justification: strings.TrimSpace(just),
			line:          lineno,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return al, nil
}

// permits reports whether the finding matches an entry, marking the entry
// used.
func (al *Allowlist) permits(f Finding) bool {
	for _, e := range al.Entries {
		if e.Analyzer != f.Analyzer || e.Key != f.Key {
			continue
		}
		if f.File == e.File || strings.HasSuffix(f.File, "/"+e.File) {
			e.used = true
			return true
		}
	}
	return false
}

// unused returns a finding per entry that never matched, restricted to
// analyzers that actually ran (disabling an analyzer must not flag its
// entries as stale), and one per entry naming an analyzer that is neither
// in the production suite nor among those that ran: such an entry can never
// match, so a typo or a deleted analyzer must not be accepted silently.
func (al *Allowlist) unused(enabled map[string]bool) []Finding {
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name()] = true
	}
	var out []Finding
	for _, e := range al.Entries {
		var msg string
		switch {
		case !known[e.Analyzer] && !enabled[e.Analyzer]:
			msg = fmt.Sprintf("allowlist entry names unknown analyzer %q", e.Analyzer)
		case e.used || !enabled[e.Analyzer]:
			continue
		default:
			msg = fmt.Sprintf("stale allowlist entry: no %s finding matches %s %s", e.Analyzer, e.File, e.Key)
		}
		out = append(out, Finding{
			Analyzer: "allowlist",
			File:     al.Path,
			Line:     e.line,
			Col:      1,
			Key:      e.Analyzer + "/" + e.Key,
			Message:  msg,
		})
	}
	return out
}
