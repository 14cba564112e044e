package asap

import (
	"go/types"
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
	docIdent    = regexp.MustCompile(`^([a-z]+)\.([A-Za-z][A-Za-z0-9]*)(?:\.([A-Za-z][A-Za-z0-9]*))?$`)
	docHole     = regexp.MustCompile(`\b(?:FULL|SMALL)_[A-Z0-9_]+\b`)
	docTest     = regexp.MustCompile(`^(?:Benchmark|Test|Fuzz|Example)[A-Z_]?[A-Za-z0-9_]*$`)
	testFunc    = regexp.MustCompile(`(?m)^func ((?:Benchmark|Test|Fuzz|Example)[A-Za-z0-9_]*)\(`)
)

// TestDocsNameLiveRefs: the prose documents name only things that exist.
// Every backticked `make <target>` is a Makefile target, and every
// backticked repo path with a source, data or document extension is a
// file in the tree, either from the root or from some directory below it
// (DESIGN.md writes sim/sizes.go for internal/sim/sizes.go). Every
// backticked `pkg.Ident` or `pkg.Type.Member`, where pkg is asap or an
// internal/ package, names a declaration, field or method of the code;
// `pkg.Method` may name a method of any type in pkg. No reproduction
// table is left a placeholder (FULL_FIG4 and the like) in EXPERIMENTS.md.
// A span that is exactly a test, benchmark, fuzz target or example name
// is declared by some _test.go in the tree.
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

	tests := map[string]bool{}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			src, _ := os.ReadFile(f) // unreadable, it declares nothing
			for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
				tests[m[1]] = true
			}
		}
	}

	pkgs := map[string]*types.Package{}
	for _, p := range loadRepo(t).pkgs {
		if p.path == "asap" || strings.HasPrefix(p.path, "asap/internal/") {
			pkgs[p.types.Name()] = p.types
		}
	}
	resolves := func(pkgName, name, member string) bool {
		pkg, ok := pkgs[pkgName]
		if !ok {
			return true // not a package of this module: not an identifier
		}
		scope := pkg.Scope()
		if obj := scope.Lookup(name); obj != nil {
			if member == "" {
				return true
			}
			found, _, _ := types.LookupFieldOrMethod(obj.Type(), true, pkg, member)
			return found != nil
		}
		if member != "" {
			return false
		}
		// The prose also names a method by its package alone
		// (`core.deliverAll` for Scheme.deliverAll).
		for _, n := range scope.Names() {
			if tn, ok := scope.Lookup(n).(*types.TypeName); ok {
				if m, _, _ := types.LookupFieldOrMethod(tn.Type(), true, pkg, name); m != nil {
					if _, ok := m.(*types.Func); ok {
						return true
					}
				}
			}
		}
		return false
	}

	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		buf, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		if doc == "EXPERIMENTS.md" {
			for _, hole := range docHole.FindAllString(string(buf), -1) {
				t.Errorf("%s: placeholder %s was never filled in", doc, hole)
			}
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
			if m := docIdent.FindStringSubmatch(code); m != nil && !resolves(m[1], m[2], m[3]) {
				t.Errorf("%s: `%s` names no declaration in the code", doc, code)
			}
			if docTest.MatchString(code) && !tests[code] {
				t.Errorf("%s: `%s` is declared by no _test.go", doc, code)
			}
		}
	}
}
