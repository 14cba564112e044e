package experiments

import (
	"reflect"
	"testing"

	"asap/internal/core"
	"asap/internal/overlay"
	"asap/internal/sim"
)

// TestVariantIsAConfigEdit: a scheme name's "+key=v" suffix is exactly a
// core.Config edit. Each key's tiny crawled RunMatrix cell equals sim.Run
// of core.New with that field set by hand, and differs from the default
// cell, so a key that edits the wrong field, or none, fails. Unknown
// schemes, malformed variants, variants on a baseline and configs that
// fail core.Config.Validate are errors.
func TestVariantIsAConfigEdit(t *testing.T) {
	lab, m := sharedTiny(t)
	edits := []struct {
		name string
		edit func(*core.Config)
	}{
		{"asap-rw+h=2", func(c *core.Config) { c.AdsRequestHops = 2 }},
		{"asap-rw+cap=400", func(c *core.Config) { c.CacheCapacity = 400 }},
		{"asap-rw+refresh=0", func(c *core.Config) { c.RefreshPeriodSec = 0 }},
		{"asap-rw+stale=1", func(c *core.Config) { c.StaleFactor = 1 }},
		{"asap-rw+div=48", func(c *core.Config) { c.UpdateBudgetDiv = 48 }},
		{"asap-rw+min=3", func(c *core.Config) { c.MinResults = 3 }},
		{"asap-rw+varfilters=1", func(c *core.Config) { c.VariableFilters = true }},
		{"asap-rw+biased=1", func(c *core.Config) { c.BiasedDelivery = true }},
	}
	if len(edits) != len(variantKeys) {
		t.Fatalf("%d edits for %d variant keys", len(edits), len(variantKeys))
	}
	var names []string
	for _, e := range edits {
		names = append(names, e.name)
	}
	cells, err := lab.RunMatrix(names, []overlay.Kind{overlay.Crawled}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range edits {
		cfg := lab.Scale.ASAPConfig(core.RW)
		e.edit(&cfg)
		sys := sim.NewSystem(lab.U, lab.Tr, overlay.Crawled, lab.Net, lab.Scale.Seed)
		want := sim.Run(sys, core.New(cfg), sim.RunOptions{})
		want.Scheme = e.name
		if got := cells[i].Summary; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: cell differs from the hand-edited config:\n got %+v\nwant %+v", e.name, got, want)
		}
		def := m["asap-rw"][overlay.Crawled]
		def.Scheme = e.name
		if reflect.DeepEqual(cells[i].Summary, def) {
			t.Errorf("%s: cell equals the default's; the key edits nothing", e.name)
		}
	}

	for _, bad := range []string{
		"bogus", "asap-rw+bogus=1", "asap-rw+", "asap-rw+h", "asap-rw+h=two", "asap-rw+h=1.5", "asap-rw+h=1+h=2",
		"flooding+h=2", "random-walk+min=3", "gsa+biased=1",
		"asap-rw+biased=2", "asap-rw+h=-1", "asap-rw+cap=0", "asap-rw+div=0", "asap-rw+refresh=-1",
		"asap-rw+min=0", "asap-rw+min=6", // MinResults out of [1, MaxConfirms=5]
	} {
		if _, err := lab.Run(bad, overlay.Crawled); err == nil {
			t.Errorf("Run(%q) accepted", bad)
		}
	}
}
