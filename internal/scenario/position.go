// JSON position tracking: scenario validation errors cite the line and
// field path of the offending value. encoding/json reports offsets only
// for syntax and type errors, so a second, token-level pass records the
// byte offset (hence line) of every key and array element, keyed by the
// same "sites[0].slots" paths the validator uses. Parse makes that pass
// only for a document that fails validation.

package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// decodeStrict decodes data into v, rejecting unknown fields and trailing
// garbage, and qualifying every decode error with a line number.
func decodeStrict(src string, data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		lines := newLineIndex(data)
		var syn *json.SyntaxError
		if errors.As(err, &syn) {
			return fmt.Errorf("%s:%d: %v", src, lines.at(syn.Offset), syn)
		}
		var typ *json.UnmarshalTypeError
		if errors.As(err, &typ) {
			field := typ.Field
			if field == "" {
				field = "(document)"
			}
			return fmt.Errorf("%s:%d: %s: cannot decode %s into %s",
				src, lines.at(typ.Offset), field, typ.Value, typ.Type)
		}
		// Unknown-field (and any other) errors carry no offset; the
		// decoder stopped right after the offending token.
		return fmt.Errorf("%s:%d: %v", src, lines.at(dec.InputOffset()), err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return fmt.Errorf("%s:%d: trailing data after the scenario document",
			src, newLineIndex(data).at(dec.InputOffset()))
	}
	return nil
}

// lineIndex converts byte offsets into 1-based line numbers.
type lineIndex struct{ newlines []int64 }

func newLineIndex(data []byte) lineIndex {
	var nl []int64
	for i, b := range data {
		if b == '\n' {
			nl = append(nl, int64(i))
		}
	}
	return lineIndex{newlines: nl}
}

func (l lineIndex) at(offset int64) int {
	return 1 + sort.Search(len(l.newlines), func(i int) bool {
		return l.newlines[i] >= offset
	})
}

// positions maps validator field paths ("workload.n[1]") to the source
// line of the corresponding key or element. Invalid JSON yields a partial
// (possibly empty) map — decodeStrict has already reported the real error
// by then.
func positions(data []byte) map[string]int {
	lines := newLineIndex(data)
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	pos := make(map[string]int)
	_ = walkValue(dec, lines, "", pos)
	return pos
}

// walkValue consumes one JSON value, recording positions of everything
// nested inside it.
func walkValue(dec *json.Decoder, lines lineIndex, path string, pos map[string]int) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	delim, ok := tok.(json.Delim)
	if !ok {
		return nil // scalar: position was recorded by the parent
	}
	switch delim {
	case '{':
		for dec.More() {
			keyTok, err := dec.Token()
			if err != nil {
				return err
			}
			key, _ := keyTok.(string)
			child := key
			if path != "" {
				child = path + "." + key
			}
			pos[child] = lines.at(dec.InputOffset())
			if err := walkValue(dec, lines, child, pos); err != nil {
				return err
			}
		}
	case '[':
		for i := 0; dec.More(); i++ {
			child := fmt.Sprintf("%s[%d]", path, i)
			pos[child] = lines.at(dec.InputOffset())
			if err := walkValue(dec, lines, child, pos); err != nil {
				return err
			}
		}
	}
	// Consume the closing delimiter.
	_, err = dec.Token()
	return err
}

// lookupLine finds the line of the longest recorded prefix of path, so an
// error on an absent field ("workload.n" missing entirely) still points at
// its nearest present ancestor.
func lookupLine(pos map[string]int, path string) int {
	for {
		if line, ok := pos[path]; ok {
			return line
		}
		i := strings.LastIndexAny(path, ".[")
		if i < 0 {
			return 0
		}
		path = path[:i]
	}
}
