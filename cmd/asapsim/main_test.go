package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"asap/internal/content"
	"asap/internal/experiments"
	"asap/internal/obs"
	"asap/internal/overlay"
	"asap/internal/sim"
	"asap/internal/trace"
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
	if err := run("bogus", "asap-rw", "crawled", "", 1, false, ""); err == nil {
		t.Error("bad scale accepted")
	}
	if err := run("tiny", "bogus", "crawled", "", 1, false, ""); err == nil {
		t.Error("bad scheme accepted")
	}
	if err := run("tiny", "asap-rw", "mesh", "", 1, false, ""); err == nil {
		t.Error("bad topology accepted")
	}
	if err := run("tiny", "asap-rw", "crawled", "/nonexistent/trace.bin", 1, false, ""); err == nil {
		t.Error("missing trace file accepted")
	}
}

func TestRunPrintsMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny run in -short mode")
	}
	out, err := captureStdout(t, func() error {
		return run("tiny", "asap-rw", "crawled", "", 1, true, "")
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"success rate", "mean response", "system load", "ad-refresh", "per-second load"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// TestRunMatchesDirectReplay: run delegates to Lab.RunObs (prototype-cloned
// overlay, collector-owned series); its stdout and -seriesdir files must
// be byte-for-byte those of a system, recorder and sim.Run built by hand.
func TestRunMatchesDirectReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny run in -short mode")
	}
	gotDir := t.TempDir()
	got, err := captureStdout(t, func() error {
		return run("tiny", "asap-rw", "crawled", "", 1, true, gotDir)
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
	rec := obs.NewRecorder(int(lab.Tr.Span()/1000) + 2)
	sys.SetObs(rec)
	sum := sim.Run(sys, sch, sim.RunOptions{})
	wantDir := t.TempDir()
	wantFiles, err := obs.WriteDir(wantDir, []obs.RunSeries{rec.Series(sum.Scheme+"/"+sum.Topology, sys.Load)})
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

func TestRunWithExternalTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny run in -short mode")
	}
	// Generate a trace compatible with the tiny scale's universe and
	// replay it from disk.
	sc, err := experiments.ByName("tiny")
	if err != nil {
		t.Fatal(err)
	}
	u := content.Generate(sc.Content)
	tcfg := sc.Trace
	tcfg.NumQueries = 200
	tr, err := trace.Build(u, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Encode(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	out, err := captureStdout(t, func() error {
		return run("tiny", "flooding", "random", path, 1, false, "")
	})
	if err != nil {
		t.Fatalf("run with trace file: %v", err)
	}
	if !strings.Contains(out, "requests:          200") {
		t.Errorf("external trace not used:\n%s", out)
	}
}
