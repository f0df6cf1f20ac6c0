package dax

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func diamond(t *testing.T) *Workflow {
	t.Helper()
	w := New("diamond")
	w.NewJob("A", "preprocess").AddOutput("f.b1", 10).AddOutput("f.b2", 10)
	w.NewJob("B", "findrange").AddInput("f.b1", 10).AddOutput("f.c1", 5)
	w.NewJob("C", "findrange").AddInput("f.b2", 10).AddOutput("f.c2", 5)
	w.NewJob("D", "analyze").AddInput("f.c1", 5).AddInput("f.c2", 5).AddOutput("f.d", 1)
	for _, e := range [][2]string{{"A", "B"}, {"A", "C"}, {"B", "D"}, {"C", "D"}} {
		if err := w.AddDependency(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func TestRootsAndLeaves(t *testing.T) {
	w := diamond(t)
	if r := w.Roots(); len(r) != 1 || r[0] != "A" {
		t.Errorf("Roots = %v, want [A]", r)
	}
	if l := w.Leaves(); len(l) != 1 || l[0] != "D" {
		t.Errorf("Leaves = %v, want [D]", l)
	}
	if w.Edges() != 4 {
		t.Errorf("Edges = %d, want 4", w.Edges())
	}
}

func TestParentsChildrenSorted(t *testing.T) {
	w := diamond(t)
	if p := w.Parents("D"); len(p) != 2 || p[0] != "B" || p[1] != "C" {
		t.Errorf("Parents(D) = %v, want [B C]", p)
	}
	if c := w.Children("A"); len(c) != 2 || c[0] != "B" || c[1] != "C" {
		t.Errorf("Children(A) = %v, want [B C]", c)
	}
	if p := w.Parents("A"); p != nil {
		t.Errorf("Parents(A) = %v, want nil", p)
	}
}

func TestTopoSortRespectsDeps(t *testing.T) {
	w := diamond(t)
	order, err := w.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, id := range order {
		pos[id] = i
	}
	for _, j := range w.Jobs() {
		for _, p := range w.Parents(j.ID) {
			if pos[p] >= pos[j.ID] {
				t.Errorf("parent %s at %d not before child %s at %d", p, pos[p], j.ID, pos[j.ID])
			}
		}
	}
}

func TestCycleDetection(t *testing.T) {
	w := New("cyclic")
	w.NewJob("A", "t")
	w.NewJob("B", "t")
	_ = w.AddDependency("A", "B")
	_ = w.AddDependency("B", "A")
	if _, err := w.TopoSort(); err == nil {
		t.Fatal("cycle not detected")
	}
	if err := w.Validate(); err == nil {
		t.Fatal("Validate accepted a cyclic workflow")
	}
}

func TestValidateRejectsEmptyAndDupProducer(t *testing.T) {
	if err := New("empty").Validate(); err == nil {
		t.Error("empty workflow validated")
	}
	w := New("dup")
	w.NewJob("A", "t").AddOutput("x", 0)
	w.NewJob("B", "t").AddOutput("x", 0)
	if err := w.Validate(); err == nil || !strings.Contains(err.Error(), "produced by both") {
		t.Errorf("duplicate producer not rejected: %v", err)
	}
}

func TestAddJobErrors(t *testing.T) {
	w := New("w")
	if err := w.AddJob(&Job{}); err == nil {
		t.Error("empty ID accepted")
	}
	w.NewJob("A", "t")
	if err := w.AddJob(&Job{ID: "A"}); err == nil {
		t.Error("duplicate ID accepted")
	}
}

func TestAddDependencyErrors(t *testing.T) {
	w := New("w")
	w.NewJob("A", "t")
	if err := w.AddDependency("A", "A"); err == nil {
		t.Error("self-dependency accepted")
	}
	if err := w.AddDependency("A", "Z"); err == nil {
		t.Error("unknown child accepted")
	}
	if err := w.AddDependency("Z", "A"); err == nil {
		t.Error("unknown parent accepted")
	}
}

// TestInputsOutputs: AddInput and AddOutput record each use with its link,
// in declaration order.
func TestInputsOutputs(t *testing.T) {
	w := diamond(t)
	want := []Use{{LFN: "f.c1", Link: LinkInput, Size: 5}, {LFN: "f.c2", Link: LinkInput, Size: 5}, {LFN: "f.d", Link: LinkOutput, Size: 1}}
	if got := w.Job("D").Uses; !reflect.DeepEqual(got, want) {
		t.Errorf("Uses = %+v, want %+v", got, want)
	}
}

func TestInferDependencies(t *testing.T) {
	w := New("infer")
	w.NewJob("A", "gen").AddOutput("data", 0)
	w.NewJob("B", "use").AddInput("data", 0)
	w.NewJob("C", "use").AddInput("data", 0)
	if err := w.InferDependencies(); err != nil {
		t.Fatal(err)
	}
	if p := w.Parents("B"); len(p) != 1 || p[0] != "A" {
		t.Errorf("Parents(B) = %v, want [A]", p)
	}
	if p := w.Parents("C"); len(p) != 1 || p[0] != "A" {
		t.Errorf("Parents(C) = %v, want [A]", p)
	}
}

func TestInferDependenciesSelfLoop(t *testing.T) {
	w := New("selfloop")
	w.NewJob("A", "t").AddInput("x", 0).AddOutput("x", 0)
	if err := w.InferDependencies(); err == nil {
		t.Error("produce+consume of same file by one job accepted")
	}
}

func TestCriticalPathAndLevels(t *testing.T) {
	w := diamond(t)
	cp, err := w.CriticalPathLength()
	if err != nil {
		t.Fatal(err)
	}
	if cp != 3 {
		t.Errorf("critical path = %d, want 3", cp)
	}
	levels, err := w.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 3 {
		t.Fatalf("levels = %d, want 3", len(levels))
	}
	if len(levels[1]) != 2 {
		t.Errorf("level 1 has %d jobs, want 2 (B and C)", len(levels[1]))
	}
}

func TestProfiles(t *testing.T) {
	w := New("p")
	j := w.NewJob("A", "t").SetProfile("pegasus", "runtime", "120")
	if got := j.Profile("pegasus", "runtime"); got != "120" {
		t.Errorf("Profile = %q, want 120", got)
	}
	if got := j.Profile("pegasus", "missing"); got != "" {
		t.Errorf("missing profile = %q, want empty", got)
	}
}

func TestXMLRoundTrip(t *testing.T) {
	w := diamond(t)
	w.Job("A").Args = []string{"-v", "input.txt"}
	w.Job("A").SetProfile("pegasus", "runtime", "60")
	w.Job("B").Priority = 5
	var buf bytes.Buffer
	if err := w.WriteXML(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadXML(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != w.Name || got.Len() != w.Len() || got.Edges() != w.Edges() {
		t.Fatalf("round trip mismatch: name=%q len=%d edges=%d", got.Name, got.Len(), got.Edges())
	}
	a := got.Job("A")
	if a == nil || len(a.Args) != 2 || a.Args[0] != "-v" {
		t.Errorf("Args not preserved: %+v", a)
	}
	if a.Profile("pegasus", "runtime") != "60" {
		t.Errorf("profile not preserved: %v", a.Profiles)
	}
	if got.Job("B").Priority != 5 {
		t.Errorf("priority not preserved")
	}
	if !reflect.DeepEqual(got.Job("D").Uses, w.Job("D").Uses) {
		t.Errorf("uses not preserved on D")
	}
	if p := got.Parents("D"); len(p) != 2 {
		t.Errorf("dependencies not preserved: Parents(D) = %v", p)
	}
}

func TestReadXMLRejectsBadLink(t *testing.T) {
	doc := `<adag name="x"><job id="A" name="t"><uses file="f" link="sideways"/></job></adag>`
	if _, err := ReadXML(strings.NewReader(doc)); err == nil {
		t.Error("bad link direction accepted")
	}
}

func TestReadXMLRejectsCycle(t *testing.T) {
	doc := `<adag name="x">
	<job id="A" name="t"/><job id="B" name="t"/>
	<child ref="A"><parent ref="B"/></child>
	<child ref="B"><parent ref="A"/></child></adag>`
	if _, err := ReadXML(strings.NewReader(doc)); err == nil {
		t.Error("cyclic DAX accepted")
	}
}

// Property: a fan-out/fan-in workflow of any width survives an XML round
// trip with identical structure.
func TestPropertyXMLRoundTripFanOut(t *testing.T) {
	f := func(widthRaw uint8) bool {
		width := int(widthRaw%64) + 1
		w := New("fan")
		w.NewJob("split", "split").AddOutput("in", 0)
		for i := 0; i < width; i++ {
			id := fmt.Sprintf("work%03d", i)
			w.NewJob(id, "work").AddInput("in", 0).AddOutput(fmt.Sprintf("out%03d", i), 0)
			_ = w.AddDependency("split", id)
		}
		w.NewJob("merge", "merge")
		for i := 0; i < width; i++ {
			w.Job("merge").AddInput(fmt.Sprintf("out%03d", i), 0)
			_ = w.AddDependency(fmt.Sprintf("work%03d", i), "merge")
		}
		var buf bytes.Buffer
		if err := w.WriteXML(&buf); err != nil {
			return false
		}
		got, err := ReadXML(&buf)
		if err != nil {
			return false
		}
		return got.Len() == w.Len() && got.Edges() == w.Edges() &&
			len(got.Roots()) == 1 && len(got.Leaves()) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: TopoSort of a random layered DAG is always a valid topological
// order.
func TestPropertyTopoSortValid(t *testing.T) {
	f := func(seed uint32) bool {
		w := New("rand")
		n := int(seed%30) + 2
		for i := 0; i < n; i++ {
			w.NewJob(fmt.Sprintf("J%02d", i), "t")
		}
		// Edges only from lower to higher index: acyclic by construction.
		s := seed
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				s = s*1664525 + 1013904223
				if s%4 == 0 {
					_ = w.AddDependency(fmt.Sprintf("J%02d", i), fmt.Sprintf("J%02d", j))
				}
			}
		}
		order, err := w.TopoSort()
		if err != nil || len(order) != n {
			return false
		}
		pos := map[string]int{}
		for i, id := range order {
			pos[id] = i
		}
		for _, j := range w.Jobs() {
			for _, p := range w.Parents(j.ID) {
				if pos[p] >= pos[j.ID] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
