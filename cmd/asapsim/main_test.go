package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"asap/internal/experiments"
	"asap/internal/obs"
	"asap/internal/overlay"
	"asap/internal/sim"
)

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
	if err := run("bogus", "asap-rw", "crawled", 1, false, ""); err == nil {
		t.Error("bad scale accepted")
	}
	if err := run("tiny", "bogus", "crawled", 1, false, ""); err == nil {
		t.Error("bad scheme accepted")
	}
	if err := run("tiny", "asap-rw", "mesh", 1, false, ""); err == nil {
		t.Error("bad topology accepted")
	}
}

// TestScenarioRejectsDroppedFlags: a scenario carries its own scale,
// scheme, topology and seed, so any of those flags given beside -scenario
// is an error naming it, default value or not; the flags a scenario run
// reads pass.
func TestScenarioRejectsDroppedFlags(t *testing.T) {
	for _, name := range scenarioFlags {
		fs := flag.NewFlagSet("", flag.ContinueOnError)
		fs.String(name, "1", "")
		fs.String("scenario", "", "")
		if err := fs.Parse([]string{"-scenario", "partition-heal", "-" + name, "1"}); err != nil {
			t.Fatal(err)
		}
		if err := scenarioDrops(fs.Visit); err == nil || !strings.Contains(err.Error(), "-"+name) {
			t.Errorf("-scenario with -%s: err %v, want one naming -%s", name, err, name)
		}
	}
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	for _, name := range []string{"scenario", "series", "seriesdir", "cpuprofile"} {
		fs.String(name, "", "")
	}
	if err := fs.Parse([]string{"-scenario", "x", "-series", "y", "-seriesdir", "d", "-cpuprofile", "p"}); err != nil {
		t.Fatal(err)
	}
	if err := scenarioDrops(fs.Visit); err != nil {
		t.Errorf("flags a scenario reads rejected: %v", err)
	}
}

func TestRunPrintsMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny run in -short mode")
	}
	out, err := captureStdout(t, func() error {
		return run("tiny", "asap-rw+h=2", "crawled", 1, true, "")
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"scheme:            asap-rw+h=2\n", "success rate", "mean response", "system load", "ad-refresh", "per-second load"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// TestRunSuperPeerTopology: -topo superpeer resolves through the shared
// topology parser and replays the super-peer overlay; an ASAP scheme on it
// runs footnote 3's hierarchy, where ~90% of requesters are leaves whose
// every answer takes the extra uplink hop, so few searches end in one hop.
func TestRunSuperPeerTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny run in -short mode")
	}
	for _, scheme := range []string{"flooding", "asap-rw"} {
		out, err := captureStdout(t, func() error {
			return run("tiny", scheme, "superpeer", 1, false, "")
		})
		if err != nil {
			t.Fatalf("%s: run: %v", scheme, err)
		}
		if !strings.Contains(out, "topology:          superpeer") || !strings.Contains(out, "success rate") {
			t.Errorf("%s: superpeer run output wrong:\n%s", scheme, out)
		}
		if scheme != "asap-rw" {
			continue
		}
		var hops float64
		var oneHop int
		i := strings.Index(out, "mean hops:")
		if i < 0 {
			t.Fatalf("no mean hops line:\n%s", out)
		}
		if _, err := fmt.Sscanf(out[i:], "mean hops: %f (one-hop %d%%)", &hops, &oneHop); err != nil {
			t.Fatalf("parsing mean hops: %v\n%s", err, out)
		}
		if oneHop >= 50 {
			t.Errorf("asap-rw on superpeer: %d%% one-hop answers, want leaves routed through their super peer\n%s", oneHop, out)
		}
	}
}

// TestRunMatchesDirectReplay: run delegates to a one-cell Lab.RunMatrix
// (prototype-cloned overlay, series read off the cell's ledger); its
// stdout and -seriesdir files must be byte-for-byte those of a system and
// sim.Run built by hand.
func TestRunMatchesDirectReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny run in -short mode")
	}
	gotDir := t.TempDir()
	got, err := captureStdout(t, func() error {
		return run("tiny", "asap-rw", "crawled", 1, true, gotDir)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	sc, err := experiments.ByName("tiny")
	if err != nil {
		t.Fatal(err)
	}
	lab, err := experiments.NewLab(sc)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := lab.NewScheme("asap-rw")
	if err != nil {
		t.Fatal(err)
	}
	sys := sim.NewSystem(lab.U, lab.Tr, overlay.Crawled, lab.Net, sc.Seed)
	sum := sim.Run(sys, sch, sim.RunOptions{})
	wantDir := t.TempDir()
	wantFiles, err := obs.WriteDir(wantDir, []obs.RunSeries{obs.Series(sum.Scheme+"/"+sum.Topology, sys.Load)})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := captureStdout(t, func() error { printSummary(sum, true); return nil })

	if got != want {
		t.Errorf("stdout differs from the direct replay:\n%s\nwant:\n%s", got, want)
	}
	gotFiles, err := os.ReadDir(gotDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotFiles) != len(wantFiles) {
		t.Fatalf("run wrote %d series files, want %d", len(gotFiles), len(wantFiles))
	}
	for _, path := range wantFiles {
		wantBytes, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		gotBytes, err := os.ReadFile(filepath.Join(gotDir, filepath.Base(path)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Errorf("%s differs from the direct replay", filepath.Base(path))
		}
	}
}
