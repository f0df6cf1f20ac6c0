package catalog

import (
	"strings"
	"testing"
)

func TestSiteCatalogAddLookup(t *testing.T) {
	c := NewSiteCatalog()
	s := &Site{Name: "sandhills", Slots: 50, SpeedFactor: 1.0, SharedSoftware: true}
	if err := c.Add(s); err != nil {
		t.Fatal(err)
	}
	got, err := c.Lookup("sandhills")
	if err != nil || got != s {
		t.Fatalf("Lookup = %v, %v", got, err)
	}
	if _, err := c.Lookup("nowhere"); err == nil {
		t.Error("unknown site lookup succeeded")
	}
}

func TestSiteCatalogRejectsInvalid(t *testing.T) {
	c := NewSiteCatalog()
	cases := []*Site{
		{Name: "", Slots: 1, SpeedFactor: 1},
		{Name: "x", Slots: 0, SpeedFactor: 1},
		{Name: "x", Slots: -3, SpeedFactor: 1},
		{Name: "x", Slots: 1, SpeedFactor: 0},
	}
	for i, s := range cases {
		if err := c.Add(s); err == nil {
			t.Errorf("case %d: invalid site accepted: %+v", i, s)
		}
	}
	ok := &Site{Name: "x", Slots: 1, SpeedFactor: 1}
	if err := c.Add(ok); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(&Site{Name: "x", Slots: 2, SpeedFactor: 1}); err == nil {
		t.Error("duplicate site accepted")
	}
}

func TestTransformationCatalog(t *testing.T) {
	c := NewTransformationCatalog()
	if err := c.Add(&Transformation{Name: "run_cap3", Site: "sandhills", PFN: "/usr/bin/cap3", Installed: true}); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(&Transformation{Name: "run_cap3", Site: "osg", PFN: "cap3.tar.gz", InstallBytes: 40 << 20}); err != nil {
		t.Fatal(err)
	}
	sh, err := c.Lookup("run_cap3", "sandhills")
	if err != nil || !sh.Installed {
		t.Fatalf("sandhills entry: %+v, %v", sh, err)
	}
	osg, err := c.Lookup("run_cap3", "osg")
	if err != nil || osg.Installed {
		t.Fatalf("osg entry: %+v, %v", osg, err)
	}
	if _, err := c.Lookup("run_cap3", "cloud"); err == nil {
		t.Error("missing site lookup succeeded")
	}
	if _, err := c.Lookup("nope", "osg"); err == nil {
		t.Error("missing transformation lookup succeeded")
	}
}

func TestTransformationCatalogErrors(t *testing.T) {
	c := NewTransformationCatalog()
	if err := c.Add(&Transformation{Name: "", Site: "x"}); err == nil {
		t.Error("empty name accepted")
	}
	if err := c.Add(&Transformation{Name: "t", Site: ""}); err == nil {
		t.Error("empty site accepted")
	}
	if err := c.Add(&Transformation{Name: "t", Site: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(&Transformation{Name: "t", Site: "x"}); err == nil {
		t.Error("duplicate (name, site) accepted")
	}
	if names := c.Names(); len(names) != 1 || names[0] != "t" {
		t.Errorf("Names = %v", names)
	}
}

func TestReplicaCatalog(t *testing.T) {
	c := NewReplicaCatalog()
	if c.Has("transcripts.fasta") {
		t.Error("Has on empty catalog")
	}
	if err := c.Add("transcripts.fasta", Replica{Site: "local", PFN: "/data/transcripts.fasta"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Add("transcripts.fasta", Replica{Site: "osg", PFN: "gsiftp://osg/transcripts.fasta"}); err != nil {
		t.Fatal(err)
	}
	if rs := c.replicas["transcripts.fasta"]; len(rs) != 2 {
		t.Fatalf("replicas = %v", rs)
	}
	if !c.Has("transcripts.fasta") {
		t.Error("Has = false after Add")
	}
	if c.Has("missing") {
		t.Error("Has = true for an unregistered LFN")
	}
}

func TestReplicaCatalogRejectsDupAndEmpty(t *testing.T) {
	c := NewReplicaCatalog()
	if err := c.Add("", Replica{Site: "local", PFN: "/x"}); err == nil {
		t.Error("empty LFN accepted")
	}
	r := Replica{Site: "local", PFN: "/x"}
	if err := c.Add("f", r); err != nil {
		t.Fatal(err)
	}
	if err := c.Add("f", r); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate replica accepted: %v", err)
	}
	if lfns := c.LFNs(); len(lfns) != 1 || lfns[0] != "f" {
		t.Errorf("LFNs = %v", lfns)
	}
}
