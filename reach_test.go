package asap

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// testOnlyAllowlist names the internal/ declarations that no program
// reaches but other packages' tests need as fixtures, each with the tests
// that use it. A declaration only its own package's tests need lives in
// that package's _test.go files instead. Keys are pkg.Name or
// pkg.Type.Method.
var testOnlyAllowlist = map[string]string{
	"core.Scheme.HasCachedAd":        "cluster_faults_test.go: TestConfirmRoundEvictsDeadSource reads a cluster peer's cache",
	"metrics.LoadAccount.TotalBytes": "core's scheme and feature tests, search's TestEndToEndRunAllBaselines: a run's bytes by class",
	"obs.NewHeapGauge":               "experiments' TestSmallReplayPeakHeapBound (make mem-gate)",
	"obs.HeapGauge.PeakMB":           "experiments' TestSmallReplayPeakHeapBound (make mem-gate)",
	"obs.Recorder.SetHeapGauge":      "experiments' TestSmallReplayPeakHeapBound (make mem-gate) attaches its gauge to the replay",
	"overlay.Graph.Host":             "sim's TestTopoProtoReplayMatchesFresh and TestSystemRandomDifferentSeeds compare overlay hosts",
	"sim.NewSystemWithGraph":         "core's super-peer tests (superSystem) and delivery benchmarks build a system over a hand-built overlay",
}

// alwaysCalled are method names the standard library calls through
// interfaces it never names in this repo's signatures (fmt's Stringer and
// error, container/heap and sort).
var alwaysCalled = map[string]bool{
	"String": true, "Error": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// repoPkg is one non-test package of the module (or of bench/), parsed
// and type-checked from source.
type repoPkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

type repoTree struct {
	fset *token.FileSet
	pkgs []*repoPkg // dependency order
}

var (
	repoOnce sync.Once
	repoVal  *repoTree
	repoErr  error
)

// loadRepo parses every non-test package under the root (bench/ included)
// and type-checks them in dependency order, importing the standard
// library from `go list -export` data. The result is shared by every test
// that asks.
func loadRepo(t *testing.T) *repoTree {
	t.Helper()
	repoOnce.Do(func() { repoVal, repoErr = parseRepo() })
	if repoErr != nil {
		t.Fatal(repoErr)
	}
	return repoVal
}

func parseRepo() (*repoTree, error) {
	tree := &repoTree{fset: token.NewFileSet()}
	byPath := map[string]*repoPkg{}
	std := map[string]bool{}
	err := filepath.WalkDir(".", func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "out") {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		p := &repoPkg{path: "asap"}
		if dir != "." {
			p.path += "/" + filepath.ToSlash(dir)
		}
		for _, e := range ents {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
				continue
			}
			f, err := parser.ParseFile(tree.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
			for _, im := range f.Imports {
				if path := strings.Trim(im.Path.Value, `"`); !inRepo(path) {
					std[path] = true
				}
			}
		}
		if len(p.files) > 0 {
			byPath[p.path] = p
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	exports, err := stdExports(std)
	if err != nil {
		return nil, err
	}
	gc := importer.ForCompiler(tree.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := byPath[path]; ok {
			return p.types, nil // checked before its importers
		}
		return gc.Import(path)
	})

	var check func(p *repoPkg) error
	done := map[*repoPkg]bool{}
	check = func(p *repoPkg) error {
		if done[p] {
			return nil
		}
		done[p] = true
		for _, f := range p.files {
			for _, im := range f.Imports {
				if dep, ok := byPath[strings.Trim(im.Path.Value, `"`)]; ok {
					if err := check(dep); err != nil {
						return err
					}
				}
			}
		}
		p.info = &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.path, tree.fset, p.files, p.info)
		if err != nil {
			return err
		}
		p.types = tp
		tree.pkgs = append(tree.pkgs, p)
		return nil
	}
	for _, p := range byPath {
		if err := check(p); err != nil {
			return nil, err
		}
	}
	return tree, nil
}

func inRepo(path string) bool { return path == "asap" || strings.HasPrefix(path, "asap/") }

func isInternal(obj types.Object) bool { return strings.HasPrefix(obj.Pkg().Path(), "asap/internal/") }

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// stdExports maps each standard-library import path (and its
// dependencies) to the compiler's export data file.
func stdExports(std map[string]bool) (map[string]string, error) {
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for path := range std {
		args = append(args, path)
	}
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v\n%s", err, stderr.Bytes())
	}
	exports := map[string]string{}
	for _, line := range strings.Split(string(out), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
			exports[path] = file
		}
	}
	return exports, nil
}

// declNode is one package-level declaration or method of the repo: what
// it uses, and the interface method names it calls.
type declNode struct {
	key   string // pkg.Name or pkg.Type.Method
	lines int
	uses  []types.Object
	calls []string
}

// reachGraph is the use graph over every declaration of the repo.
type reachGraph struct {
	nodes   map[types.Object]*declNode
	methods map[types.Object][]*types.Func // receiver type → its declared methods
	roots   []types.Object
}

func buildReachGraph(tree *repoTree) *reachGraph {
	g := &reachGraph{nodes: map[types.Object]*declNode{}, methods: map[types.Object][]*types.Func{}}
	for _, p := range tree.pkgs {
		isMain := p.types.Name() == "main"
		// bench/ changes only with the benchmark itself, so everything it
		// declares counts as used.
		frozen := p.path == "asap/bench"
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj := p.info.Defs[d.Name].(*types.Func)
					n := g.add(tree, p, obj, d)
					if recv := recvType(obj); recv != nil {
						g.methods[recv] = append(g.methods[recv], obj)
						n.key = p.types.Name() + "." + recv.Name() + "." + obj.Name()
						if (p.path == "asap" && obj.Exported() && recv.Exported()) || frozen {
							g.roots = append(g.roots, obj)
						}
						continue
					}
					if d.Name.Name == "init" || (isMain && d.Name.Name == "main") ||
						(p.path == "asap" && obj.Exported()) || frozen {
						g.roots = append(g.roots, obj)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var names []*ast.Ident
						switch s := spec.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						}
						for _, name := range names {
							obj := p.info.Defs[name]
							if obj == nil {
								continue
							}
							g.add(tree, p, obj, spec)
							if name.Name == "_" || (p.path == "asap" && obj.Exported()) || frozen {
								g.roots = append(g.roots, obj)
							}
						}
					}
				}
			}
		}
	}
	return g
}

// add records obj's node: the objects its declaration uses and the
// interface methods it calls, with the standard library's interfaces
// that its calls and types hand a value to counted as called.
func (g *reachGraph) add(tree *repoTree, p *repoPkg, obj types.Object, decl ast.Node) *declNode {
	n := &declNode{
		key:   p.types.Name() + "." + obj.Name(),
		lines: tree.fset.Position(decl.End()).Line - tree.fset.Position(decl.Pos()).Line + 1,
	}
	ast.Inspect(decl, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		used := p.info.Uses[id]
		if used == nil {
			return true
		}
		if fn, ok := used.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && isInterface(recv.Type()) {
				n.calls = append(n.calls, fn.Name())
				return true
			}
			used = fn.Origin()
		}
		if used.Pkg() != nil && !inRepo(used.Pkg().Path()) {
			n.calls = append(n.calls, sinkMethods(used)...)
			return true
		}
		n.uses = append(n.uses, used)
		return true
	})
	g.nodes[obj] = n
	return n
}

// sinkMethods lists the interface methods the standard library may call
// on a value handed to obj: an interface type's own methods, a function's
// interface parameters', an interface-typed field's or variable's.
func sinkMethods(obj types.Object) []string {
	var ifaces []types.Type
	switch o := obj.(type) {
	case *types.TypeName, *types.Var:
		ifaces = append(ifaces, o.Type())
	case *types.Func:
		params := o.Type().(*types.Signature).Params()
		for i := 0; i < params.Len(); i++ {
			ifaces = append(ifaces, params.At(i).Type())
		}
	}
	var names []string
	for _, t := range ifaces {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names = append(names, it.Method(i).Name())
			}
		}
	}
	return names
}

func isInterface(t types.Type) bool {
	if _, ok := t.(*types.TypeParam); ok {
		return true
	}
	return types.IsInterface(t)
}

// recvType is the named type a method is declared on, or nil for a
// function.
func recvType(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin().Obj()
	}
	return nil
}

// live walks the graph from its roots and extra. A function, type,
// variable or constant is live once live code uses it. A method is live
// once its receiver type is live and live code either calls it directly or
// calls its name through some interface.
func (g *reachGraph) live(extra []types.Object) map[types.Object]bool {
	live := map[types.Object]bool{}
	wanted := map[types.Object]bool{} // methods called directly
	called := map[string]bool{}
	for name := range alwaysCalled {
		called[name] = true
	}
	var stack []types.Object
	mark := func(obj types.Object) {
		if _, ok := g.nodes[obj]; ok && !live[obj] {
			live[obj] = true
			stack = append(stack, obj)
		}
	}
	markMethod := func(fn *types.Func) {
		wanted[fn] = true
		if recv := recvType(fn); recv == nil || live[recv] {
			mark(fn)
		}
	}
	use := func(obj types.Object) {
		if fn, ok := obj.(*types.Func); ok {
			markMethod(fn)
		} else {
			mark(obj)
		}
	}
	for _, obj := range g.roots {
		use(obj)
	}
	for _, obj := range extra {
		use(obj)
	}
	for len(stack) > 0 {
		obj := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := g.nodes[obj]
		for _, used := range n.uses {
			use(used)
		}
		for _, name := range n.calls {
			if called[name] {
				continue
			}
			called[name] = true
			for recv, ms := range g.methods {
				for _, m := range ms {
					if m.Name() == name && live[recv] {
						mark(m)
					}
				}
			}
		}
		for _, m := range g.methods[obj] {
			if wanted[m] || called[m.Name()] {
				mark(m)
			}
		}
	}
	return live
}

// TestInternalCodeIsReachable: every package-level declaration under
// internal/ is reached from a program. The roots are every main package
// (cmd/, examples/, bench/), the root package's exported API, init
// functions and blank declarations. Code only tests reach belongs in
// _test.go files, or, as a fixture other packages' tests share, on
// testOnlyAllowlist with the tests that need it.
func TestInternalCodeIsReachable(t *testing.T) {
	tree := loadRepo(t)
	g := buildReachGraph(tree)

	var allowed []types.Object
	named := map[string]bool{}
	for obj, n := range g.nodes {
		if _, ok := testOnlyAllowlist[n.key]; ok && isInternal(obj) {
			allowed = append(allowed, obj)
			named[n.key] = true
		}
	}
	for key, why := range testOnlyAllowlist {
		if !named[key] {
			t.Errorf("testOnlyAllowlist names %s, which is not declared under internal/", key)
		}
		if strings.TrimSpace(why) == "" {
			t.Errorf("testOnlyAllowlist entry %s gives no reason", key)
		}
	}
	programs := g.live(nil)
	for _, obj := range allowed {
		if programs[obj] {
			t.Errorf("%s is reachable from a program: drop it from testOnlyAllowlist", g.nodes[obj].key)
		}
	}

	// An allowlisted fixture keeps what it uses.
	live := g.live(allowed)
	var dead []string
	lines := 0
	for obj, n := range g.nodes {
		if live[obj] || !isInternal(obj) || obj.Name() == "_" {
			continue
		}
		dead = append(dead, fmt.Sprintf("%s (%s, %d lines)", n.key, tree.fset.Position(obj.Pos()), n.lines))
		lines += n.lines
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("unreachable from any program: %s", d)
	}
	if len(dead) > 0 {
		t.Logf("%d unreachable declarations, %d lines", len(dead), lines)
	}
}
