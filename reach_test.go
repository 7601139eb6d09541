package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The reachability gate: every top-level func, method, type, var and
// const in non-test Go must be referenced by non-test Go. Code whose only
// caller is a test is deleted, or moved into the tests that call it.
//
// The scan type-checks every non-test package with go/types, so a
// reference is an identifier resolved to the declared object, not a name
// that happens to match (sim.RunMany is not Session.RunMany, Scratch.Ints
// is not sort.Ints). A reference from inside the name's own declaration
// (a recursive call, a method's receiver) does not count. A method also
// counts as referenced when its type satisfies an interface the non-test
// code uses (agent.World, io.Reader, ...), since an interface call names
// no concrete method; String, Error and Unwrap always count, because fmt
// and errors call them dynamically. The declarations of package main and
// of the test-support package internal/simtest are not checked; their
// references count.

// reachAllowlist names what the scan may find unreferenced, each with its
// reason: a perfbench caller (perfbench is its own module, so the scan
// type-checks it apart, and the entry fails once that caller is gone) or
// a reference implementation another package's tests pin an engine
// against (the entry fails once those tests stop naming it). Any entry
// also fails once non-test code references it.
var reachAllowlist = []reachEntry{
	{name: "dist.LastRunStats", perfbench: true,
		why: "perfbench's traced runs read each sweep's RunStats through it"},
	{name: "dist.ExecShardBatch", perfbench: true,
		why: "deprecated stub; perfbench replays Batch shards through it"},
	{name: "dist.Planner.SetBatch", perfbench: true,
		why: "deprecated stub; perfbench's daemon workload stamps its shards with it"},
	{name: "dist.Planner.Shards", perfbench: true,
		why: "perfbench's daemon workload submits a planner's shards itself"},
	{name: "sim.NewBatch", perfbench: true,
		why: "deprecated stub; perfbench's shard replay allocates one"},
	{name: "agent.Unbatched", pinnedBy: "sim",
		why: "the per-move reference the engine-equivalence tests pin the batched engine against"},
	{name: "view.RefTruncated", pinnedBy: "rendezvous",
		why: "the pointer-tree reference view the view-walk tests pin the agent's physical walk against"},
	{name: "view.Tree.Ref", pinnedBy: "rendezvous",
		why: "converts a walked tree for the comparison with RefTruncated"},
}

// reachEntry is one allowlisted name, spelled as the declaring package's
// path inside the module, then the receiver type for a method, then the
// name: "dist.Planner.SetBatch", "internal/rng.New".
type reachEntry struct {
	name string
	// perfbench marks a name perfbench calls; otherwise pinnedBy is the
	// package (module-relative path) whose tests pin an engine against it.
	perfbench bool
	pinnedBy  string
	why       string
}

func TestReachability(t *testing.T) {
	pkgs, err := loadDir(".", "repro")
	if err != nil {
		t.Fatal(err)
	}
	bench, err := loadDir("perfbench", "repro/perfbench")
	if err != nil {
		t.Fatal(err)
	}
	res, err := scanReach(pkgs, bench, "repro")
	if err != nil {
		t.Fatal(err)
	}
	testsOf := func(pkg string) []*ast.File {
		names, err := filepath.Glob(filepath.Join(filepath.FromSlash(pkg), "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(reachFset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		return files
	}
	for _, p := range checkAllowlist(res, reachAllowlist, testsOf) {
		t.Error(p)
	}
	t.Logf("%d top-level names checked, %d unreferenced, %d allowlisted", len(res.checked), len(res.unused), len(reachAllowlist))
}

// reachFset holds every file the scans parse.
var reachFset = token.NewFileSet()

// stdImporter reads the standard library's compiled export data, once
// per test binary; the scan and its self-test share it.
var stdImporter = sync.OnceValue(func() types.ImporterFrom {
	return importer.ForCompiler(reachFset, "gc", nil).(types.ImporterFrom)
})

// loadDir parses the non-test Go files of every package under dir that
// the build would compile, keyed by import path (modPath plus the
// directory). Directories holding another module, testdata and
// dot-directories are skipped.
func loadDir(dir, modPath string) (map[string][]*ast.File, error) {
	pkgs := map[string][]*ast.File{}
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil || p == dir {
			return err
		}
		if d.IsDir() {
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil ||
				strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(p), d.Name()); err != nil || !ok {
			return err
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, p)
		return addFile(pkgs, modPath, filepath.ToSlash(rel), p, src)
	})
	return pkgs, err
}

// addFile parses src, the module file at rel (a slash path), into its
// package under the file name name, unless it is a test file.
func addFile(pkgs map[string][]*ast.File, modPath, rel, name string, src []byte) error {
	if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
		return nil
	}
	f, err := parser.ParseFile(reachFset, name, src, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	ip := modPath
	if dir := path.Dir(rel); dir != "." {
		ip += "/" + dir
	}
	pkgs[ip] = append(pkgs[ip], f)
	return nil
}

// reachResult is what a scan found, every name spelled as in reachEntry.
type reachResult struct {
	checked map[string]bool           // every name checked
	unused  map[string]token.Position // the unreferenced ones
	bench   map[string]bool           // the names bench references
}

// scanReach type-checks pkgs (the non-test files of module modPath, by
// import path) and bench (another module importing modPath's packages)
// and reports which top-level names of pkgs no file of pkgs references.
func scanReach(pkgs, bench map[string][]*ast.File, modPath string) (*reachResult, error) {
	c := newChecker(pkgs, nil)
	b := newChecker(bench, c)
	for _, ck := range []*checker{c, b} {
		for ip := range ck.files {
			if _, err := ck.Import(ip); err != nil {
				return nil, err
			}
		}
	}
	res := &reachResult{checked: map[string]bool{}, unused: map[string]token.Position{}, bench: map[string]bool{}}
	used := map[types.Object]bool{}
	ifaces := &ifaceSet{seen: map[types.Type]bool{}}
	var decls []types.Object
	for ip, files := range pkgs {
		info := c.infos[ip]
		recordUses(info, files, used, ifaces)
		if ip != modPath+"/internal/simtest" && files[0].Name.Name != "main" {
			decls = append(decls, declsOf(info, files)...)
		}
	}
	markInterfaceMethods(decls, ifaces, used)
	for _, obj := range decls {
		name := objName(obj, modPath)
		res.checked[name] = true
		if !used[obj] && !alwaysUsed(obj) {
			res.unused[name] = reachFset.Position(obj.Pos())
		}
	}
	for _, info := range b.infos {
		for _, obj := range info.Uses {
			if name := objName(obj, modPath); name != "" {
				res.bench[name] = true
			}
		}
	}
	return res, nil
}

// checker type-checks a set of parsed packages in import order, taking
// every other import from dep (another checker) or, with no dep, from the
// standard library.
type checker struct {
	files map[string][]*ast.File
	dep   *checker
	pkgs  map[string]*types.Package
	infos map[string]*types.Info
}

func newChecker(files map[string][]*ast.File, dep *checker) *checker {
	return &checker{files: files, dep: dep, pkgs: map[string]*types.Package{}, infos: map[string]*types.Info{}}
}

func (c *checker) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, "", 0)
}

func (c *checker) ImportFrom(ip, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := c.pkgs[ip]; ok {
		return pkg, nil
	}
	files, ok := c.files[ip]
	if !ok && c.dep != nil {
		return c.dep.ImportFrom(ip, dir, mode)
	}
	if !ok {
		return stdImporter().ImportFrom(ip, dir, mode)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	pkg, err := (&types.Config{Importer: c}).Check(ip, reachFset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", ip, err)
	}
	c.pkgs[ip], c.infos[ip] = pkg, info
	return pkg, nil
}

// objName spells obj as a reachEntry name, or returns "" for an object
// that is not a top-level name or method of a package of modPath.
func objName(obj types.Object, modPath string) string {
	obj = origin(obj)
	pkg := obj.Pkg()
	if pkg == nil || !strings.HasPrefix(pkg.Path()+"/", modPath+"/") {
		return ""
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(pkg.Path(), modPath), "/")
	if rel == "" {
		rel = pkg.Name()
	}
	if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
		t := fn.Signature().Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := types.Unalias(t).(*types.Named); ok {
			return rel + "." + named.Obj().Name() + "." + obj.Name()
		}
		return "" // an interface's method
	}
	if obj.Parent() != pkg.Scope() {
		return ""
	}
	return rel + "." + obj.Name()
}

// origin maps an object of an instantiated generic to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// declsOf lists a package's top-level declarations: package-level
// objects and the methods of the types it declares.
func declsOf(info *types.Info, files []*ast.File) []types.Object {
	var out []types.Object
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Name.Name != "init" && d.Name.Name != "_" {
					out = append(out, info.Defs[d.Name])
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						out = append(out, info.Defs[s.Name])
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.Name != "_" {
								out = append(out, info.Defs[n])
							}
						}
					}
				}
			}
		}
	}
	return out
}

// recordUses marks every object the files reference from outside that
// object's own declaration, and collects the interface types they use.
func recordUses(info *types.Info, files []*ast.File, used map[types.Object]bool, ifaces *ifaceSet) {
	for id, obj := range info.Uses {
		obj = origin(obj)
		if !withinOwnDecl(obj, id.Pos(), files) {
			used[obj] = true
		}
		ifaces.walk(obj.Type())
	}
	for _, tv := range info.Types {
		ifaces.walk(tv.Type)
	}
}

// withinOwnDecl reports whether pos lies inside the declaration of obj:
// a function's own body, a method's receiver list, a type's own
// definition, a value spec's own initializer.
func withinOwnDecl(obj types.Object, pos token.Pos, files []*ast.File) bool {
	for _, f := range files {
		if pos < f.Pos() || pos > f.End() {
			continue
		}
		i, _ := slices.BinarySearchFunc(f.Decls, pos, func(d ast.Decl, p token.Pos) int {
			return int(d.End() - p)
		})
		if i == len(f.Decls) || pos < f.Decls[i].Pos() {
			return false
		}
		switch d := f.Decls[i].(type) {
		case *ast.FuncDecl:
			// A receiver list names only the method's own type.
			return d.Name.Pos() == obj.Pos() || d.Recv != nil && pos <= d.Recv.End()
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				if pos < spec.Pos() || pos > spec.End() {
					continue
				}
				switch s := spec.(type) {
				case *ast.TypeSpec:
					return s.Name.Pos() == obj.Pos()
				case *ast.ValueSpec:
					return slices.ContainsFunc(s.Names, func(n *ast.Ident) bool { return n.Pos() == obj.Pos() })
				}
			}
		}
		return false
	}
	return false
}

// ifaceSet collects the interface types reachable from the types the code
// names or computes, through pointers, containers and function signatures
// (so a call's interface parameters count).
type ifaceSet struct {
	seen map[types.Type]bool
	list []*types.Interface
}

func (s *ifaceSet) walk(t types.Type) {
	if t == nil || s.seen[t] {
		return
	}
	s.seen[t] = true
	switch t := t.(type) {
	case *types.Alias:
		s.walk(types.Unalias(t))
	case *types.Named:
		s.walk(t.Underlying())
	case *types.Interface:
		if t.NumMethods() > 0 {
			s.list = append(s.list, t)
		}
	case *types.Pointer:
		s.walk(t.Elem())
	case *types.Slice:
		s.walk(t.Elem())
	case *types.Array:
		s.walk(t.Elem())
	case *types.Chan:
		s.walk(t.Elem())
	case *types.Map:
		s.walk(t.Key())
		s.walk(t.Elem())
	case *types.Signature:
		s.walk(t.Params())
		s.walk(t.Results())
	case *types.Tuple:
		for v := range t.Variables() {
			s.walk(v.Type())
		}
	}
}

// markInterfaceMethods marks, for every checked named type that satisfies
// a used interface, the methods that interface selects.
func markInterfaceMethods(decls []types.Object, ifaces *ifaceSet, used map[types.Object]bool) {
	for _, obj := range decls {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named := tn.Type().(*types.Named)
		if _, ok := named.Underlying().(*types.Interface); ok || named.NumMethods() == 0 || named.TypeParams() != nil {
			continue
		}
		ptr := types.NewPointer(named)
		for _, it := range ifaces.list {
			if !types.Implements(ptr, it) {
				continue
			}
			for m := range it.Methods() {
				if sel, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); sel != nil {
					used[origin(sel)] = true
				}
			}
		}
	}
}

// alwaysUsed reports the methods fmt and errors call dynamically.
func alwaysUsed(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Signature().Recv() == nil {
		return false
	}
	switch fn.Name() {
	case "String", "Error", "Unwrap":
		return true
	}
	return false
}

// checkAllowlist returns one problem per unreferenced name that allow does
// not list, naming its position, and one per entry of allow that no longer
// holds. testsOf parses the test files of a module package.
func checkAllowlist(res *reachResult, allow []reachEntry, testsOf func(pkg string) []*ast.File) []string {
	var probs []string
	listed := map[string]bool{}
	for _, e := range allow {
		listed[e.name] = true
		_, unused := res.unused[e.name]
		switch {
		case !res.checked[e.name]:
			probs = append(probs, fmt.Sprintf("allowlist entry %s: no such top-level name", e.name))
		case !unused:
			probs = append(probs, fmt.Sprintf("allowlist entry %s: non-test code references it now; delete the entry", e.name))
		case e.perfbench && !res.bench[e.name]:
			probs = append(probs, fmt.Sprintf("allowlist entry %s: perfbench no longer calls it; delete it, or move it into the tests that use it", e.name))
		case !e.perfbench && !namedBy(testsOf(e.pinnedBy), e.name):
			probs = append(probs, fmt.Sprintf("allowlist entry %s: %s's tests no longer name it; delete it, or move it into the tests that use it", e.name, e.pinnedBy))
		}
	}
	var names []string
	for name := range res.unused {
		if !listed[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		probs = append(probs, fmt.Sprintf("%s: %s is referenced by no non-test code: delete it, or move it into the tests that use it", res.unused[name], name))
	}
	return probs
}

// namedBy reports whether a selector in files names the allowlisted name:
// pkg.Name for a package-level name, any x.Method for a method. This one
// check matches names, as test files are parsed, not type-checked.
func namedBy(files []*ast.File, name string) bool {
	parts := strings.Split(name[strings.LastIndex(name, "/")+1:], ".")
	found := false
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if s, ok := n.(*ast.SelectorExpr); ok && s.Sel.Name == parts[len(parts)-1] {
				x, isIdent := s.X.(*ast.Ident)
				found = found || len(parts) == 3 || isIdent && x.Name == parts[0]
			}
			return !found
		})
	}
	return found
}

// TestReachScanner runs the scan and the allowlist check over small
// in-memory modules, each a case the gate must get right.
func TestReachScanner(t *testing.T) {
	const (
		// use calls the names the cases keep referenced.
		use = `package main

import "m/a"

func main() { a.Used(); println(a.Total(a.Square{2}), a.E{}) }
`
		lib = `package a

func Used() {}

type Shape interface{ Area() int }

func Total(s Shape) int { return s.Area() }

type Square struct{ N int }

func (q Square) Area() int { return q.N * q.N }

func (q Square) String() string { return "square" }

type E struct{}

func (E) Error() string { return "e" }

func (E) Unwrap() error { return nil }
`
	)
	cases := []struct {
		name  string
		extra string            // appended to lib
		tests map[string]string // a test file per module package
		bench string            // a perfbench main file, if any
		allow []reachEntry
		want  []string // each problem's prefix, in order
	}{
		{name: "all referenced"},
		{name: "unused exported func", extra: "\nfunc Unused() {}\n",
			want: []string{"a/a.go:21:6: a.Unused is referenced by no non-test code"}},
		{name: "unused method of exported type", extra: "\nfunc (q Square) Perimeter() int { return 4 * q.N }\n",
			want: []string{"a/a.go:21:17: a.Square.Perimeter is referenced by no non-test code"}},
		{name: "unused unexported func", extra: "\nfunc helper() {}\n",
			want: []string{"a/a.go:21:6: a.helper is referenced by no non-test code"}},
		{name: "referenced only from a test file", extra: "\nfunc ForTests() {}\n",
			tests: map[string]string{"a": "package a\n\nfunc init() { ForTests() }\n"},
			want:  []string{"a/a.go:21:6: a.ForTests is referenced by no non-test code"}},
		{name: "referenced only by itself", extra: "\nfunc fact(n int) int {\n\tif n == 0 {\n\t\treturn 1\n\t}\n\treturn n * fact(n-1)\n}\n",
			want: []string{"a/a.go:21:6: a.fact is referenced by no non-test code"}},
		{name: "type referenced only by its receivers", extra: "\ntype t struct{}\n\nfunc (t) m() {}\n",
			want: []string{"a/a.go:21:6: a.t is referenced", "a/a.go:23:10: a.t.m is referenced"}},
		{name: "perfbench caller present", extra: "\nfunc Stub() {}\n",
			bench: "package main\n\nimport \"m/a\"\n\nfunc main() { a.Stub() }\n",
			allow: []reachEntry{{name: "a.Stub", perfbench: true}}},
		{name: "perfbench caller gone", extra: "\nfunc Stub() {}\n",
			bench: "package main\n\nfunc main() {}\n",
			allow: []reachEntry{{name: "a.Stub", perfbench: true}},
			want:  []string{"allowlist entry a.Stub: perfbench no longer calls it"}},
		{name: "allowlisted name called by non-test code",
			allow: []reachEntry{{name: "a.Used", perfbench: true}},
			want:  []string{"allowlist entry a.Used: non-test code references it now"}},
		{name: "pinned reference named by the pinning tests", extra: "\nfunc Ref() {}\n",
			tests: map[string]string{"b": "package b\n\nimport \"m/a\"\n\nvar _ = a.Ref\n\nvar _ = struct{ Ref int }{}.Ref\n"},
			allow: []reachEntry{{name: "a.Ref", pinnedBy: "b"}}},
		{name: "pinned reference its tests dropped", extra: "\nfunc Ref() {}\n",
			tests: map[string]string{"b": "package b\n"},
			allow: []reachEntry{{name: "a.Ref", pinnedBy: "b"}},
			want:  []string{"allowlist entry a.Ref: b's tests no longer name it"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			srcs := map[string]string{"a/a.go": lib + c.extra, "cmd/main.go": use}
			for pkg, src := range c.tests {
				srcs[pkg+"/x_test.go"] = src
			}
			pkgs, bench := map[string][]*ast.File{}, map[string][]*ast.File{}
			for rel, src := range srcs {
				if err := addFile(pkgs, "m", rel, rel, []byte(src)); err != nil {
					t.Fatal(err)
				}
			}
			if c.bench != "" {
				if err := addFile(bench, "m/perfbench", "main.go", "perfbench/main.go", []byte(c.bench)); err != nil {
					t.Fatal(err)
				}
			}
			res, err := scanReach(pkgs, bench, "m")
			if err != nil {
				t.Fatal(err)
			}
			probs := checkAllowlist(res, c.allow, func(pkg string) []*ast.File {
				f, err := parser.ParseFile(reachFset, pkg+"/x_test.go", c.tests[pkg], 0)
				if err != nil {
					t.Fatal(err)
				}
				return []*ast.File{f}
			})
			if len(probs) != len(c.want) {
				t.Fatalf("problems %q, want %d starting %q", probs, len(c.want), c.want)
			}
			for i, p := range probs {
				if !strings.HasPrefix(p, c.want[i]) {
					t.Errorf("problem %d is %q, want it to start %q", i, p, c.want[i])
				}
			}
		})
	}
}
