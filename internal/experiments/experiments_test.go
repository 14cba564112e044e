package experiments

import (
	"strings"
	"sync"
	"testing"

	"asap/internal/content"
	"asap/internal/metrics"
	"asap/internal/overlay"
)

var (
	labOnce sync.Once
	tinyLab *Lab
	tinyMat Matrix
	labErr  error
)

// sharedTiny runs the full 6×3 matrix once at tiny scale for all tests.
func sharedTiny(t *testing.T) (*Lab, Matrix) {
	t.Helper()
	labOnce.Do(func() {
		tinyLab, labErr = NewLab(ScaleTiny())
		if labErr != nil {
			return
		}
		var cells []Cell
		cells, labErr = tinyLab.RunMatrix(nil, nil, nil)
		tinyMat = MatrixOf(cells)
	})
	if labErr != nil {
		t.Fatalf("shared tiny lab: %v", labErr)
	}
	return tinyLab, tinyMat
}

func TestByName(t *testing.T) {
	for _, name := range []string{"full", "small", "tiny"} {
		sc, err := ByName(name)
		if err != nil || sc.Name != name {
			t.Errorf("ByName(%q) = %v, %v", name, sc.Name, err)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("ByName accepted bogus scale")
	}
}

func TestScalePresetsValid(t *testing.T) {
	for _, sc := range []Scale{ScaleFull(), ScaleSmall(), ScaleTiny()} {
		if err := sc.Net.Validate(); err != nil {
			t.Errorf("%s net: %v", sc.Name, err)
		}
		if err := sc.Content.Validate(); err != nil {
			t.Errorf("%s content: %v", sc.Name, err)
		}
		if err := sc.Trace.Validate(); err != nil {
			t.Errorf("%s trace: %v", sc.Name, err)
		}
		if err := sc.ASAPConfig(0).Validate(); err != nil {
			t.Errorf("%s asap: %v", sc.Name, err)
		}
	}
}

func TestNewSchemeRegistry(t *testing.T) {
	lab, _ := sharedTiny(t)
	for _, name := range SchemeNames {
		sch, err := lab.NewScheme(name)
		if err != nil {
			t.Fatalf("NewScheme(%q): %v", name, err)
		}
		if sch.Name() != name {
			t.Errorf("scheme %q reports name %q", name, sch.Name())
		}
	}
}

func TestMatrixComplete(t *testing.T) {
	_, m := sharedTiny(t)
	for _, s := range SchemeNames {
		per, ok := m[s]
		if !ok {
			t.Fatalf("matrix missing scheme %s", s)
		}
		for _, k := range overlay.Kinds {
			sum, ok := per[k]
			if !ok {
				t.Fatalf("matrix missing %s/%s", s, k)
			}
			if sum.Requests == 0 {
				t.Errorf("%s/%s: zero requests", s, k)
			}
			if sum.SuccessRate <= 0 {
				t.Errorf("%s/%s: zero success", s, k)
			}
		}
	}
}

func TestComparativeShape(t *testing.T) {
	_, m := sharedTiny(t)
	for _, k := range overlay.Kinds {
		flood := m["flooding"][k]
		aRw := m["asap-rw"][k]
		if aRw.MeanRespMS >= flood.MeanRespMS {
			t.Errorf("%s: asap-rw response %.0f ms not below flooding %.0f ms",
				k, aRw.MeanRespMS, flood.MeanRespMS)
		}
		if aRw.MeanSearchBytes*10 >= flood.MeanSearchBytes {
			t.Errorf("%s: asap-rw search cost %.0f B not ≥10x below flooding %.0f B",
				k, aRw.MeanSearchBytes, flood.MeanSearchBytes)
		}
		if aRw.LoadMeanKBps >= flood.LoadMeanKBps {
			t.Errorf("%s: asap-rw load %.3f not below flooding %.3f",
				k, aRw.LoadMeanKBps, flood.LoadMeanKBps)
		}
	}
}

func TestFigureFormatting(t *testing.T) {
	lab, m := sharedTiny(t)
	for name, out := range map[string]string{
		"fig2":  FormatFig2(lab),
		"fig3":  FormatFig3(lab),
		"fig4":  FormatFig4(m),
		"fig5":  FormatFig5(m),
		"fig6":  FormatFig6(m),
		"fig7":  FormatFig7(m["asap-rw"][overlay.Crawled]),
		"fig8":  FormatFig8(m),
		"fig9":  FormatFig9(m),
		"fig10": FormatFig10(m, 20),
	} {
		if len(out) == 0 || !strings.Contains(out, "\n") {
			t.Errorf("%s: empty output", name)
		}
	}
	if !strings.Contains(FormatFig4(m), "flooding") {
		t.Error("fig4 missing scheme rows")
	}
	if !strings.Contains(FormatFig7(m["asap-rw"][overlay.Crawled]), "patch ads") {
		t.Error("fig7 missing breakdown rows")
	}
	if got := FormatFig10(Matrix{}, 10); !strings.Contains(got, "no crawled") {
		t.Error("fig10 with empty matrix should say so")
	}
}

func TestFig2Fig3Shapes(t *testing.T) {
	lab, _ := sharedTiny(t)
	f2, f3 := lab.Fig2(), lab.Fig3()
	tot2, tot3 := 0, 0
	for c := 0; c < content.NumClasses; c++ {
		tot2 += f2[c]
		tot3 += f3[c]
		if f3[c] < f2[c] {
			// Interests include free-riders, so interest counts dominate
			// content counts per class only in aggregate; per-class noise
			// is possible but rare at this scale.
			t.Logf("class %d: interests %d < contents %d", c, f3[c], f2[c])
		}
	}
	if tot2 == 0 || tot3 <= tot2 {
		t.Errorf("figure masses implausible: contents %d interests %d", tot2, tot3)
	}
}

func TestClaims(t *testing.T) {
	_, m := sharedTiny(t)
	claims := CheckClaims(m)
	if len(claims) != 7 {
		t.Fatalf("%d claims checked, want 7", len(claims))
	}
	failed := 0
	for _, c := range claims {
		if !c.Pass {
			failed++
			t.Logf("claim %s FAILED: %s (%s)", c.ID, c.Text, c.Note)
		}
	}
	// Claims C2 (orders-of-magnitude cost gap), C3 (load gap) and C5
	// (walker failure under low replication) are scale-dependent: a
	// 5×1024-step walk covers a 400-node overlay completely, and flooding
	// is cheap when the flood horizon is the whole network. Those claims
	// are asserted at larger scales (see EXPERIMENTS.md).
	// The response-time and variance shape must hold even here.
	for _, c := range claims {
		if (c.ID == "C1" || c.ID == "C4" || c.ID == "C6" || c.ID == "C7") && !c.Pass {
			t.Errorf("core claim %s failed at tiny scale: %s", c.ID, c.Note)
		}
	}
	out := FormatClaims(claims)
	if !strings.Contains(out, "C1") {
		t.Error("claims table missing rows")
	}

	// A partial matrix still reports every claim: the ones that need
	// flooding fail as missing runs, the rest are unchanged.
	partial := Matrix{}
	for s, per := range m {
		if s != "flooding" {
			partial[s] = per
		}
	}
	got := CheckClaims(partial)
	if len(got) != 7 {
		t.Fatalf("matrix without flooding: %d claims, want 7", len(got))
	}
	for i, c := range got {
		needsFlood := c.ID <= "C5"
		switch {
		case c.ID != claims[i].ID:
			t.Errorf("claim %d is %s, want %s", i, c.ID, claims[i].ID)
		case needsFlood && (c.Pass || c.Note != "missing runs"):
			t.Errorf("%s without flooding: pass=%v %q, want FAIL missing runs", c.ID, c.Pass, c.Note)
		case !needsFlood && c != claims[i]:
			t.Errorf("%s without flooding = %+v, want %+v", c.ID, c, claims[i])
		}
	}
}

func TestRenderTable(t *testing.T) {
	out := RenderTable([]string{"a", "bb"}, [][]string{{"x", "y"}, {"long", "z"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4", len(lines))
	}
	if len(lines[0]) != len(lines[1]) {
		t.Error("separator misaligned")
	}
}

func TestMatrixSubset(t *testing.T) {
	lab, _ := sharedTiny(t)
	calls := 0
	cells, err := lab.RunMatrix([]string{"flooding"}, []overlay.Kind{overlay.Random},
		func(string, overlay.Kind) { calls++ })
	if err != nil {
		t.Fatal(err)
	}
	m := MatrixOf(cells)
	if calls != 1 || len(m) != 1 || len(m["flooding"]) != 1 || cells[0].Key() != "flooding/random" {
		t.Errorf("subset run wrong: calls=%d, cells %+v", calls, cells)
	}
}

func TestSortedKinds(t *testing.T) {
	m := map[overlay.Kind]metrics.Summary{overlay.Crawled: {}, overlay.Random: {}}
	ks := SortedKinds(m)
	if len(ks) != 2 || ks[0] != overlay.Random || ks[1] != overlay.Crawled {
		t.Errorf("SortedKinds = %v", ks)
	}
}
