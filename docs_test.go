package asap

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	docSpan     = regexp.MustCompile("`([^`\n]+)`")
	docMake     = regexp.MustCompile(`(?:^|[\s(;&|])make\s+([A-Za-z][A-Za-z0-9_-]*)`)
	docPath     = regexp.MustCompile(`(?:^|[\s("'=,:])([A-Za-z0-9_.][A-Za-z0-9_./-]*\.(?:go|jsonl|json|md|sh|txt|yml))\b`)
	makeTargets = regexp.MustCompile(`(?m)^([A-Za-z0-9_-]+):`)
)

// TestDocsNameLiveRefs: the prose documents name only things that exist.
// Every backticked `make <target>` is a Makefile target, and every
// backticked repo path with a source, data or document extension is a
// file in the tree, either from the root or from some directory below it
// (DESIGN.md writes sim/sizes.go for internal/sim/sizes.go).
func TestDocsNameLiveRefs(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTargets.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	var files []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		if !d.IsDir() {
			files = append(files, filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(ref string) bool {
		ref = strings.TrimPrefix(ref, "./")
		for _, f := range files {
			if f == ref || strings.HasSuffix(f, "/"+ref) {
				return true
			}
		}
		return false
	}

	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		buf, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range docSpan.FindAllStringSubmatch(string(buf), -1) {
			code := span[1]
			for _, m := range docMake.FindAllStringSubmatch(code, -1) {
				if !targets[m[1]] {
					t.Errorf("%s: `make %s` is not a Makefile target", doc, m[1])
				}
			}
			for _, m := range docPath.FindAllStringSubmatch(code, -1) {
				if !exists(m[1]) {
					t.Errorf("%s: %s names no file in the tree", doc, m[1])
				}
			}
		}
	}
}
