package workflow

import (
	"slices"
	"strings"
	"sync"
	"testing"
)

func presetWorld(t *testing.T) *World {
	t.Helper()
	w, err := NewWorld(PaperSites(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// orderedSubsets lists every non-empty ordered selection of distinct names.
func orderedSubsets(names []string) [][]string {
	var out [][]string
	var extend func(prefix []string)
	extend = func(prefix []string) {
		for _, name := range names {
			if slices.Contains(prefix, name) {
				continue
			}
			set := append(slices.Clone(prefix), name)
			out = append(out, set)
			extend(set)
		}
	}
	extend(nil)
	return out
}

// TestWorldKeyIsCatalogFingerprint: the memoized key is the catalogs'
// fingerprint of that ordered site list, for every list the presets allow,
// asked in any order and asked again.
func TestWorldKeyIsCatalogFingerprint(t *testing.T) {
	w := presetWorld(t)
	sets := orderedSubsets(PresetNames())
	if len(sets) != 15 {
		t.Fatalf("%d ordered subsets of three presets, want 15", len(sets))
	}
	for round := 0; round < 2; round++ {
		for _, set := range sets {
			if got, want := w.Key(set), w.Catalogs().Fingerprint(set); got != want {
				t.Errorf("Key(%v) = %q, Fingerprint %q", set, got, want)
			}
		}
	}
	if len(w.keys) != len(sets) {
		t.Errorf("%d memoized keys after two rounds over %d site lists", len(w.keys), len(sets))
	}
}

// TestWorldKeyComputedOnce (run under -race by `make race`): concurrent
// first callers of one site list share one fingerprint computation, and
// NewWorld computes none.
func TestWorldKeyComputedOnce(t *testing.T) {
	w := presetWorld(t)
	if len(w.keys) != 0 {
		t.Fatalf("NewWorld memoized %d keys, want none until a run asks", len(w.keys))
	}
	names := []string{"sandhills", "osg"}
	keys := make([]string, 8)
	var wg sync.WaitGroup
	for i := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A caller's own slice each: the memo must not key on identity.
			keys[i] = w.Key(slices.Clone(names))
		}()
	}
	wg.Wait()
	for i, k := range keys {
		if k != w.Catalogs().Fingerprint(names) {
			t.Errorf("caller %d got %q", i, k)
		}
	}
	if len(w.keys) != 1 {
		t.Errorf("eight concurrent callers left %d memo entries, want 1", len(w.keys))
	}
}

// TestNewWorldBuildsCatalogsOnFirstUse: NewWorld builds no catalog; the
// first Catalogs or Key call builds them, once, equal to Catalogs(sites).
func TestNewWorldBuildsCatalogsOnFirstUse(t *testing.T) {
	for _, first := range []string{"Catalogs", "Key"} {
		w := presetWorld(t)
		if w.cats.Sites != nil || w.cats.Transformations != nil || w.cats.Replicas != nil {
			t.Fatalf("NewWorld built catalogs: %+v", w.cats)
		}
		if first == "Key" {
			w.Key([]string{"osg"})
		}
		got := w.Catalogs()
		if got.Sites == nil || got.Transformations == nil || got.Replicas == nil {
			t.Fatalf("after %s: catalogs not built: %+v", first, got)
		}
		if w.Catalogs() != got {
			t.Errorf("after %s: a second Catalogs call built them again", first)
		}
		want, err := catalogs(PaperSites(0, 0))
		if err != nil {
			t.Fatal(err)
		}
		names := PresetNames()
		if got.Fingerprint(names) != want.Fingerprint(names) {
			t.Errorf("after %s: the world's catalogs differ from Catalogs(sites)", first)
		}
	}
}

// TestNewWorldRefusesBadSites: deferring the catalogs drops none of their
// checks. A repeated site name and every invalid platform model still fail
// at NewWorld, with the error building the catalogs would give.
func TestNewWorldRefusesBadSites(t *testing.T) {
	sandhills, _ := Preset("sandhills")
	osg, _ := Preset("osg")
	edit := func(s Site, f func(*Site)) Site { f(&s); return s }
	for _, tc := range []struct {
		name  string
		sites []Site
		want  string
	}{
		{"duplicate name", []Site{sandhills, osg, sandhills}, `duplicate site "sandhills"`},
		{"empty name", []Site{edit(osg, func(s *Site) { s.Platform.Name = "" })}, "empty name"},
		{"no slots", []Site{sandhills, edit(osg, func(s *Site) { s.Platform.Slots = 0 })}, "non-positive slots"},
		{"no speed", []Site{edit(osg, func(s *Site) { s.Platform.SpeedFactor = 0 })}, "non-positive speed factor"},
		{"jitter", []Site{edit(osg, func(s *Site) { s.Platform.SpeedJitter = 1 })}, "speed jitter"},
		{"negative mean", []Site{edit(osg, func(s *Site) { s.Platform.DispatchMean = -1 })}, "negative rate or mean"},
		{"negative ramp", []Site{edit(osg, func(s *Site) { s.Platform.SlotRampInterval = -1 })}, "negative slot ramp"},
		// The invalid model comes first, so it is the one reported.
		{"invalid before duplicate", []Site{sandhills, edit(sandhills, func(s *Site) { s.Platform.Slots = -1 })}, "non-positive slots"},
	} {
		w, err := NewWorld(tc.sites)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: NewWorld = %v, %v; want an error containing %q", tc.name, w, err, tc.want)
			continue
		}
		if _, cerr := catalogs(tc.sites); cerr == nil || cerr.Error() != err.Error() {
			t.Errorf("%s: NewWorld says %q, Catalogs %v", tc.name, err, cerr)
		}
	}
}

// TestWorldConfigs: the seeded models come back in the order asked, and a
// name the world does not declare is refused rather than run on a zero model.
func TestWorldConfigs(t *testing.T) {
	w := presetWorld(t)
	cfgs, err := w.Configs([]string{"osg", "sandhills"}, 7)
	if err != nil {
		t.Fatal(err)
	}
	osg, _ := Preset("osg")
	sandhills, _ := Preset("sandhills")
	if cfgs[0] != osg.Config(7) || cfgs[1] != sandhills.Config(7) {
		t.Errorf("Configs(osg, sandhills) = %+v", cfgs)
	}
	if _, err := w.Configs([]string{"osg", "mainframe"}, 7); err == nil || !strings.Contains(err.Error(), `"mainframe"`) {
		t.Errorf("undeclared site: err = %v", err)
	}
}
