package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceEntry is one allowlisted export: a function or method under
// internal/ that nothing outside its package calls, and why it stays
// exported anyway. The name is written as the analyzer prints it:
// package (its path below internal/), then receiver type, then name.
type surfaceEntry struct{ name, reason string }

// surfaceAllowlist is every export under internal/ that no non-test
// code in another package calls, with the reason it keeps its
// capital letter: each is driven by a test in another package.
var surfaceAllowlist = []surfaceEntry{
	{"mcclient.Client.Ejected", "cluster's failover test asserts which server the client ejected"},
	{"mcclient.SessionMux.Transport", "cluster's tests read a concentrator trunk's path counters"},
	{"simnet.FaultInjector.DropNext", "the fault tests of verbs, sockstream, cluster and memcached drop a scripted run of frames"},
	{"simnet.FaultInjector.Heal", "the fault tests of ucr and cluster lift a partition mid-test"},
	{"verbs.CQ.Len", "ucr's sweep tests count the completions left on a context's CQ"},
}

// TestExportedSurfaceIsUsed keeps the exported surface of internal/ the
// size its callers need. An exported function or method counts as used
// when a non-test file of another package in the module — under
// internal/, cmd/, examples/, benchmark/ or the root — resolves an
// identifier to it, or when it implements a method of an interface its
// receiver type satisfies (any interface in the module, error,
// fmt.Stringer, heap.Interface, io.Reader, io.Writer, or the
// Unwrap() error form errors.Is reads). Test files never count. Every
// unused export must be unexported, deleted, or listed in
// surfaceAllowlist with its reason; a listed name that is used or gone
// fails the test too.
func TestExportedSurfaceIsUsed(t *testing.T) {
	unused, err := unusedExports(".", "repro")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range surfaceFindings(unused, surfaceAllowlist) {
		t.Error(f)
	}
}

// TestSurfaceRuleOnFixture runs the analyzer over a small module under
// testdata/surface whose every export is a case of the rule: a
// test-only export and a stale allowlist entry are flagged, and an
// interface implementation, an Unwrap, a generic method reached only
// through an instantiation and a function only a benchmark/ directory
// calls are not.
func TestSurfaceRuleOnFixture(t *testing.T) {
	unused, err := unusedExports(filepath.Join("testdata", "surface"), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	got := surfaceFindings(unused, []surfaceEntry{
		{"lib.Stale", "a name the fixture never declares"},
		{"lib.Allowed", "only a test in another package calls it"},
	})
	want := []string{
		"lib.Stale: allowlisted, but it is used outside its package or no longer exists",
		"lib.TestOnly: exported, but no non-test code outside its package calls it",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings on the fixture:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// surfaceFindings compares the unused exports with the allowlist: an
// unused name the list lacks, a listed name not among the unused, and a
// listed name without a reason are each one finding.
func surfaceFindings(unused []string, allow []surfaceEntry) []string {
	listed := map[string]bool{}
	var out []string
	for _, e := range allow {
		listed[e.name] = true
		if strings.TrimSpace(e.reason) == "" {
			out = append(out, e.name+": allowlisted without a reason")
		}
	}
	isUnused := map[string]bool{}
	for _, name := range unused {
		isUnused[name] = true
		if !listed[name] {
			out = append(out, name+": exported, but no non-test code outside its package calls it")
		}
	}
	for _, e := range allow {
		if !isUnused[e.name] {
			out = append(out, e.name+": allowlisted, but it is used outside its package or no longer exists")
		}
	}
	sort.Strings(out)
	return out
}

// unusedExports type-checks every package of the module rooted at root
// (import path module) from its non-test source, as the default build
// context selects it, and returns the exported functions and methods of
// the packages under internal/ that the rule of
// TestExportedSurfaceIsUsed finds unused, sorted.
func unusedExports(root, module string) ([]string, error) {
	fset := token.NewFileSet()
	l := &srcLoader{
		fset: fset, root: root, module: module,
		std:  importer.ForCompiler(fset, "gc", nil),
		pkgs: map[string]*srcPackage{},
	}
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if bp, err := build.ImportDir(p, 0); err == nil && len(bp.GoFiles) > 0 {
			rel, _ := filepath.Rel(root, p)
			paths = append(paths, path.Join(module, filepath.ToSlash(rel)))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range paths {
		if _, err := l.load(p); err != nil {
			return nil, err
		}
	}

	errType := types.Universe.Lookup("error").Type()
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false))
	ifaces := []*types.Interface{
		errType.Underlying().(*types.Interface),
		types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete(),
	}
	for _, std := range [][2]string{{"fmt", "Stringer"}, {"container/heap", "Interface"}, {"io", "Reader"}, {"io", "Writer"}} {
		pkg, err := l.std.Import(std[0])
		if err != nil {
			return nil, err
		}
		ifaces = append(ifaces, pkg.Scope().Lookup(std[1]).Type().Underlying().(*types.Interface))
	}
	used := map[*types.Func]bool{}
	for _, p := range l.pkgs {
		for _, name := range p.pkg.Scope().Names() {
			if tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, obj := range p.info.Uses {
			if f, ok := obj.(*types.Func); ok && f.Pkg() != p.pkg {
				used[f.Origin()] = true
			}
		}
	}

	var unused []string
	for _, p := range l.pkgs {
		if !strings.HasPrefix(p.pkg.Path(), module+"/internal/") {
			continue
		}
		rel := strings.TrimPrefix(p.pkg.Path(), module+"/internal/")
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() && !used[obj] {
					unused = append(unused, rel+"."+name)
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if m.Exported() && !used[m] && !implementsAny(named, m.Name(), ifaces) {
						unused = append(unused, rel+"."+name+"."+m.Name())
					}
				}
			}
		}
	}
	sort.Strings(unused)
	return unused, nil
}

// implementsAny reports whether T or *T satisfies an interface that has
// a method called method. A generic type is not checked: its methods
// are reached through instantiations, which map back to it.
func implementsAny(named *types.Named, method string, ifaces []*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, method); obj == nil {
			continue
		}
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

// srcLoader type-checks the module's packages from source, each once,
// and the standard library from the compiler's export data.
type srcLoader struct {
	fset         *token.FileSet
	root, module string
	std          types.Importer
	pkgs         map[string]*srcPackage
}

type srcPackage struct {
	pkg  *types.Package
	info *types.Info
}

func (l *srcLoader) Import(p string) (*types.Package, error) {
	if p != l.module && !strings.HasPrefix(p, l.module+"/") {
		return l.std.Import(p)
	}
	sp, err := l.load(p)
	if err != nil {
		return nil, err
	}
	return sp.pkg, nil
}

func (l *srcLoader) load(p string) (*srcPackage, error) {
	if sp, ok := l.pkgs[p]; ok {
		if sp == nil {
			return nil, fmt.Errorf("import cycle through %s", p)
		}
		return sp, nil
	}
	l.pkgs[p] = nil
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(p, l.module), "/")))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: l}).Check(p, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	sp := &srcPackage{pkg: pkg, info: info}
	l.pkgs[p] = sp
	return sp, nil
}
