package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"asap/internal/metrics"
)

// update regenerates the golden fixtures:
//
//	go test ./internal/scenario -run TestGoldenReplay -update
var update = flag.Bool("update", false, "rewrite the golden scenario fixtures in testdata/")

// golden is one pinned scenario replay: the full summary, the SHA-256 of
// the per-second series CSV, and every column's run total. The hash is
// the regression gate; the sums exist so a mismatch reports WHICH counter
// moved, not just that something did.
type golden struct {
	Summary      metrics.Summary  `json:"summary"`
	SeriesSHA256 string           `json:"series_sha256"`
	ColumnSums   map[string]int64 `json:"column_sums"`
}

func goldenPath(name string) string {
	return filepath.Join("testdata", name+".golden.json")
}

// snapshot reduces a result to its golden form.
func snapshot(res *Result) golden {
	sum := sha256.Sum256(res.Series.CSV())
	cols := map[string]int64{}
	for i, c := range res.Series.Columns {
		if c == "sec" {
			continue
		}
		cols[c] = res.Series.Warmup[i]
		for _, row := range res.Series.Rows {
			cols[c] += row[i]
		}
	}
	return golden{
		Summary:      res.Summary,
		SeriesSHA256: hex.EncodeToString(sum[:]),
		ColumnSums:   cols,
	}
}

// TestGoldenReplay is the golden-replay regression gate: every built-in
// scenario must reproduce its pinned summary and series hash exactly. Any
// drift in the replay core, the schemes, the fault plane, or the scenario
// compiler shows up here first — with a per-counter diff naming the
// columns that moved. Regenerate deliberately with -update and review the
// fixture diff like code.
func TestGoldenReplay(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			if !*update {
				t.Parallel()
			}
			sn, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(sn)
			if err != nil {
				t.Fatal(err)
			}
			got := snapshot(res)
			path := goldenPath(name)
			if *update {
				buf, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s", path)
				return
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("no golden fixture (run with -update to create): %v", err)
			}
			var want golden
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatalf("corrupt fixture %s: %v", path, err)
			}
			if diff := diffGolden(&want, &got); diff != "" {
				t.Errorf("scenario %s diverged from its golden replay:\n%s", name, diff)
			}
		})
	}
}

// diffGolden renders a readable mismatch report: the summary fields and
// series columns that moved, with pinned vs observed values. Empty when
// the replay matches.
func diffGolden(want, got *golden) string {
	var out string
	ws, _ := json.Marshal(want.Summary)
	gs, _ := json.Marshal(got.Summary)
	if string(ws) != string(gs) {
		out += fmt.Sprintf("summary:\n  pinned:   %s\n  observed: %s\n", ws, gs)
	}
	if want.SeriesSHA256 != got.SeriesSHA256 {
		out += fmt.Sprintf("series hash: pinned %s, observed %s\n", want.SeriesSHA256, got.SeriesSHA256)
	}
	var cols []string
	for c := range want.ColumnSums {
		cols = append(cols, c)
	}
	for c := range got.ColumnSums {
		if _, ok := want.ColumnSums[c]; !ok {
			cols = append(cols, c)
		}
	}
	sort.Strings(cols)
	for _, c := range cols {
		w, wok := want.ColumnSums[c]
		g, gok := got.ColumnSums[c]
		switch {
		case !wok:
			out += fmt.Sprintf("  column %-24s new, observed %d\n", c, g)
		case !gok:
			out += fmt.Sprintf("  column %-24s gone, pinned %d\n", c, w)
		case w != g:
			out += fmt.Sprintf("  column %-24s pinned %d, observed %d (%+d)\n", c, w, g, g-w)
		}
	}
	return out
}

// TestDiffGoldenReadable pins the mismatch report itself: a perturbed
// snapshot must name the exact counter that moved with both values.
func TestDiffGoldenReadable(t *testing.T) {
	base := golden{
		Summary:      metrics.Summary{Scheme: "asap-rw", Requests: 10},
		SeriesSHA256: "aa",
		ColumnSums:   map[string]int64{"part_drops": 5, "rewires": 2},
	}
	same := base
	same.ColumnSums = map[string]int64{"part_drops": 5, "rewires": 2}
	if d := diffGolden(&base, &same); d != "" {
		t.Errorf("identical snapshots produced a diff:\n%s", d)
	}
	moved := base
	moved.SeriesSHA256 = "bb"
	moved.ColumnSums = map[string]int64{"part_drops": 7, "rewires": 2}
	d := diffGolden(&base, &moved)
	for _, frag := range []string{"part_drops", "pinned 5", "observed 7", "series hash"} {
		if !strings.Contains(d, frag) {
			t.Errorf("diff does not mention %q:\n%s", frag, d)
		}
	}
	if strings.Contains(d, "rewires") {
		t.Errorf("diff mentions an unchanged counter:\n%s", d)
	}
}
