package main

import (
	"flag"
	"os"
	"strings"
	"testing"

	"asap/internal/experiments"
	"asap/internal/overlay"
)

// captureStdout redirects os.Stdout around fn and returns what it wrote.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	buf := make([]byte, 1<<20)
	n, _ := r.Read(buf)
	r.Close()
	return string(buf[:n]), runErr
}

func TestRunRejectsBadInputs(t *testing.T) {
	if err := run(options{scale: "bogus", figure: "all", seed: 1, quiet: true}); err == nil {
		t.Error("bad scale accepted")
	}
	if err := run(options{scale: "tiny", figure: "99", seed: 1, quiet: true}); err == nil {
		t.Error("bad figure accepted")
	}
	if err := run(options{scale: "tiny", figure: "4", topos: "mesh", seed: 1, quiet: true}); err == nil {
		t.Error("bad topology accepted")
	}
	if err := run(options{scale: "tiny", figure: "7", schemes: "flooding", topos: "crawled", seed: 1, quiet: true}); err == nil {
		t.Error("figure 7 without asap-rw accepted")
	}
	if err := run(options{scale: "tiny", figure: "7", schemes: "asap-rw", topos: "random", seed: 1, quiet: true}); err == nil {
		t.Error("figure 7 without crawled accepted")
	}
	if err := run(options{scale: "tiny", figure: "seeds", seed: 1, quiet: true}); err == nil {
		t.Error("seed sweep over zero seeds accepted")
	}
	if err := run(options{scale: "tiny", figure: "loss", topos: "random,crawled", seed: 1, quiet: true}); err == nil {
		t.Error("loss sweep over two topologies accepted")
	}
	// The paper figures iterate the paper's schemes × topologies, so a
	// variant or superpeer is an error naming it, not a dropped row.
	for _, figure := range []string{"all", "4", "5", "6", "7", "8", "9", "10", "claims"} {
		for _, o := range []options{{schemes: "asap-rw+h=2"}, {topos: "superpeer"}} {
			o.scale, o.figure, o.seed, o.quiet = "tiny", figure, 1, true
			if err := run(o); err == nil || !strings.Contains(err.Error(), `"`+o.schemes+o.topos+`"`) {
				t.Errorf("-figure %s -schemes %q -topos %q: err %v, want one naming it", figure, o.schemes, o.topos, err)
			}
		}
	}
	// A flag the figure does not read is an error naming it; its default
	// value is not.
	for _, c := range []struct{ figure, flag string }{
		{"seeds", "series"},
		{"loss", "loss"},
		{"scenario", "loss"}, {"scenario", "schemes"}, {"scenario", "topos"},
		{"2", "schemes"}, {"2", "topos"}, {"2", "loss"}, {"2", "series"},
		{"3", "schemes"}, {"3", "topos"}, {"3", "loss"}, {"3", "series"},
	} {
		if err := unreadFlag(c.figure, given("quiet", c.flag)); err == nil || !strings.HasSuffix(err.Error(), "does not read -"+c.flag) {
			t.Errorf("-figure %s -%s: err %v, want one naming -%s", c.figure, c.flag, err, c.flag)
		}
		fs := flag.NewFlagSet("", flag.ContinueOnError)
		fs.String(c.flag, "0", "")
		if err := fs.Parse([]string{"-" + c.flag, "0"}); err != nil || unreadFlag(c.figure, fs.Visit) != nil {
			t.Errorf("-figure %s with -%s at its default rejected", c.figure, c.flag)
		}
	}
}

// given returns a flag visitor over the named flags, each set off its
// default.
func given(names ...string) func(func(*flag.Flag)) {
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	for _, name := range names {
		fs.String(name, "", "")
		fs.Set(name, "x")
	}
	return fs.Visit
}

// TestUnreadFlagAcceptsReadFlags: every flag a figure reads passes.
func TestUnreadFlagAcceptsReadFlags(t *testing.T) {
	for figure, reads := range figureFlags {
		if err := unreadFlag(figure, given(append(strings.Fields(reads), "figure", "quiet", "cpuprofile")...)); err != nil {
			t.Errorf("-figure %q: %v", figure, err)
		}
	}
	if err := unreadFlag("4", given("seeds")); err == nil {
		t.Error("-figure 4 -seeds accepted")
	}
}

func TestRunSingleFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny lab runs in -short mode")
	}
	out, err := captureStdout(t, func() error { return run(options{scale: "tiny", figure: "2", seed: 1, quiet: true}) })
	if err != nil {
		t.Fatalf("figure 2: %v", err)
	}
	if !strings.Contains(out, "Fig 2") || !strings.Contains(out, "audio") {
		t.Errorf("figure 2 output wrong:\n%s", out)
	}
	out, err = captureStdout(t, func() error { return run(options{scale: "tiny", figure: "3", seed: 1, quiet: true}) })
	if err != nil || !strings.Contains(out, "Fig 3") {
		t.Errorf("figure 3: %v\n%s", err, out)
	}
}

func TestRunSubsetMatrixFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny lab runs in -short mode")
	}
	out, err := captureStdout(t, func() error {
		return run(options{scale: "tiny", figure: "4", schemes: "flooding,asap-rw", topos: "crawled", seed: 1, quiet: true})
	})
	if err != nil {
		t.Fatalf("figure 4 subset: %v", err)
	}
	for _, want := range []string{"Fig 4", "flooding", "asap-rw", "crawled"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 4 output missing %q:\n%s", want, out)
		}
	}
	// Schemes not requested must not appear as rows.
	if strings.Contains(out, "asap-gsa") {
		t.Error("unrequested scheme in output")
	}
}

func TestRunClaimsFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny lab runs in -short mode")
	}
	out, err := captureStdout(t, func() error {
		return run(options{scale: "tiny", figure: "claims", schemes: "flooding,random-walk,gsa,asap-fld,asap-rw", topos: "crawled", seed: 1, quiet: true})
	})
	if err != nil {
		t.Fatalf("claims: %v", err)
	}
	if !strings.Contains(out, "C1") || !strings.Contains(out, "PASS") {
		t.Errorf("claims output wrong:\n%s", out)
	}
}

// TestRunSeedsHonoursLoss runs a two-seed sweep reliable and at 5 % loss:
// the lossy sweep books drops on every seed and moves the row, and both
// print each metric's [min, max] range.
func TestRunSeedsHonoursLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny lab runs in -short mode")
	}
	sweep := func(loss float64) string {
		out, err := captureStdout(t, func() error {
			return run(options{scale: "tiny", figure: "seeds", schemes: "asap-rw", topos: "crawled", seed: 1, seeds: 2, loss: loss, quiet: true})
		})
		if err != nil {
			t.Fatalf("seeds at loss %v: %v", loss, err)
		}
		return out
	}
	reliable, lossy := sweep(0), sweep(0.05)
	row := func(out string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, "asap-rw") {
				return line
			}
		}
		t.Fatalf("no asap-rw row:\n%s", out)
		return ""
	}
	if !strings.Contains(reliable, "0% message loss") || !strings.Contains(lossy, "5% message loss") {
		t.Errorf("titles do not name the loss rate:\n%s\n%s", reliable, lossy)
	}
	if !strings.HasSuffix(strings.TrimSpace(row(reliable)), "0±0 [0, 0]") {
		t.Errorf("reliable sweep books drops: %s", row(reliable))
	}
	if strings.Contains(row(lossy), " [0, ") {
		t.Errorf("lossy sweep has a seed without drops: %s", row(lossy))
	}
	if row(lossy) == row(reliable) {
		t.Errorf("loss rate did not reach the sweep: %s", row(lossy))
	}
}

// TestRunSeedsStartsAtSeed: -figure seeds sweeps -seeds seeds from -seed
// on, so -seed 2 -seeds 1 is the library sweep over seed 2 alone and
// differs from the sweep over seed 1.
func TestRunSeedsStartsAtSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny lab runs in -short mode")
	}
	sweep := func(seed uint64) string {
		out, err := captureStdout(t, func() error {
			return run(options{scale: "tiny", figure: "seeds", schemes: "asap-rw", topos: "crawled", seed: seed, seeds: 1, quiet: true})
		})
		if err != nil {
			t.Fatalf("seeds from %d: %v", seed, err)
		}
		return out
	}
	sws, err := experiments.RunSeeds(experiments.ScaleTiny(), []string{"asap-rw"}, []overlay.Kind{overlay.Crawled}, []uint64{2})
	if err != nil {
		t.Fatal(err)
	}
	second := sweep(2)
	if want := experiments.FormatSeedSweeps(sws, 0) + "\n"; second != want {
		t.Errorf("-seed 2 -seeds 1 printed\n%s\nwant the sweep over seed 2:\n%s", second, want)
	}
	if first := sweep(1); first == second {
		t.Errorf("-seed 2 printed the seed-1 sweep:\n%s", first)
	}
}
