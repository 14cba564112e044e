package main

import (
	"os"
	"strings"
	"testing"
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
	if err := run("bogus", "all", "", "", 0, 1, 0, "", true); err == nil {
		t.Error("bad scale accepted")
	}
	if err := run("tiny", "99", "", "", 0, 1, 0, "", true); err == nil {
		t.Error("bad figure accepted")
	}
	if err := run("tiny", "4", "", "mesh", 0, 1, 0, "", true); err == nil {
		t.Error("bad topology accepted")
	}
	if err := run("tiny", "7", "flooding", "crawled", 0, 1, 0, "", true); err == nil {
		t.Error("figure 7 without asap-rw accepted")
	}
	if err := run("tiny", "7", "asap-rw", "random", 0, 1, 0, "", true); err == nil {
		t.Error("figure 7 without crawled accepted")
	}
}

func TestRunSingleFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny lab runs in -short mode")
	}
	out, err := captureStdout(t, func() error { return run("tiny", "2", "", "", 0, 1, 0, "", true) })
	if err != nil {
		t.Fatalf("figure 2: %v", err)
	}
	if !strings.Contains(out, "Fig 2") || !strings.Contains(out, "audio") {
		t.Errorf("figure 2 output wrong:\n%s", out)
	}
	out, err = captureStdout(t, func() error { return run("tiny", "3", "", "", 0, 1, 0, "", true) })
	if err != nil || !strings.Contains(out, "Fig 3") {
		t.Errorf("figure 3: %v\n%s", err, out)
	}
}

func TestRunSubsetMatrixFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny lab runs in -short mode")
	}
	out, err := captureStdout(t, func() error {
		return run("tiny", "4", "flooding,asap-rw", "crawled", 0, 1, 0, "", true)
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
		return run("tiny", "claims", "flooding,random-walk,gsa,asap-fld,asap-rw", "crawled", 0, 1, 0, "", true)
	})
	if err != nil {
		t.Fatalf("claims: %v", err)
	}
	if !strings.Contains(out, "C1") || !strings.Contains(out, "PASS") {
		t.Errorf("claims output wrong:\n%s", out)
	}
}

func TestKindByName(t *testing.T) {
	for _, name := range []string{"random", "powerlaw", "crawled"} {
		k, err := kindByName(name)
		if err != nil || k.String() != name {
			t.Errorf("kindByName(%q) = %v, %v", name, k, err)
		}
	}
	if _, err := kindByName("bogus"); err == nil {
		t.Error("bogus kind accepted")
	}
}
