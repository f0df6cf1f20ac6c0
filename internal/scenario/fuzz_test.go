package scenario

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// parseEager is Parse as it was before positions became lazy: it walks the
// source for positions first, whether or not validation needs them. It is
// the reference FuzzParse holds Parse to.
func parseEager(src string, data []byte) (*Doc, error) {
	doc := &Doc{}
	if err := decodeStrict(src, data, doc); err != nil {
		return nil, err
	}
	pos := positions(data)
	if errs := doc.validate(src, pos); len(errs) > 0 {
		msgs := make([]string, len(errs))
		for i, e := range errs {
			msgs[i] = e.Error()
		}
		return nil, fmt.Errorf("%s", strings.Join(msgs, "\n"))
	}
	doc.applyDefaults()
	return doc, nil
}

// breakages are field-level edits that turn a valid document into one
// validation (or decoding) refuses, each at the first place it applies.
var breakages = [][2]string{
	{`"version": 1`, `"version": 2`},
	{`"name": "`, `"name": "not a name `},
	{`"n": [`, `"n": [-1, `},
	{`"seeds": [`, `"seeds": ["x", `},
	{`"slots": `, `"slots": -`},
	{`"preset": "`, `"preset": "no-such-`},
	{`"sites": [`, `"sites": [{}, `},
	{`"site_sets": [`, `"site_sets": [[], ["nowhere"], `},
	{`"failover": [`, `"failover": [true, `},
	{`"fields": [`, `"fields": ["no_such_field", `},
	{`"percentiles": [`, `"percentiles": [101, `},
	{`"workload": {`, `"workload": {"unknown_key": 1, `},
	{`"max_tasks": `, `"max_tasks": -`},
	{`"at": `, `"at": -`},
	{`"type": "`, `"type": "no-such-`},
}

// exampleDocs returns every scenario document under examples/scenarios, in
// lexical path order.
func exampleDocs(t testing.TB) [][]byte {
	t.Helper()
	var docs [][]byte
	root := filepath.Join("..", "..", "examples", "scenarios")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		data, err := os.ReadFile(path)
		docs = append(docs, data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) == 0 {
		t.Fatal("no example scenarios found")
	}
	return docs
}

// FuzzParse: for every input, Parse — which walks positions only once
// validation has failed — returns the document the eager reference returns,
// or an error with byte-identical text. The seed corpus is every example
// scenario, truncations of each, and each with every breakage applied;
// testdata/fuzz/FuzzParse holds further failing documents. CI runs
// `-fuzz=FuzzParse -fuzztime=10s`.
func FuzzParse(f *testing.F) {
	for _, data := range exampleDocs(f) {
		f.Add(data)
		for _, cut := range []int{1, len(data) / 3, len(data) / 2, len(data) - 2} {
			if cut > 0 && cut < len(data) {
				f.Add(data[:cut])
			}
		}
		for _, b := range breakages {
			if broken := strings.Replace(string(data), b[0], b[1], 1); broken != string(data) {
				f.Add([]byte(broken))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := Parse("fuzz.json", data)
		want, wantErr := parseEager("fuzz.json", data)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("Parse error %v, eager parse error %v", gotErr, wantErr)
		case gotErr != nil:
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("error text differs:\n--- Parse ---\n%s\n--- eager ---\n%s", gotErr, wantErr)
			}
		case !reflect.DeepEqual(got, want):
			t.Fatalf("documents differ:\n--- Parse ---\n%+v\n--- eager ---\n%+v", got, want)
		}
	})
}
