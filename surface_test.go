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

// surfaceEntry is one allowlisted export: a name under internal/ that
// no non-test code outside its package uses, and why it stays exported
// anyway. The name is written as the analyzer prints it: package (its
// path below internal/), then, for a method or a field, its type, then
// the name.
type surfaceEntry struct{ name, reason string }

// surfaceAllowlist is every export under internal/ that no non-test
// code in another package uses, with the reason it keeps its capital
// letter: a test in another package drives it.
var surfaceAllowlist = []surfaceEntry{
	{"mcclient.Client.Ejected", "cluster's failover test asserts which server the client ejected"},
	{"mcclient.ErrBadKey", "cluster's TestFleetRejectsBadKey checks a fleet refuses a bad key before it reaches a server"},
	{"mcclient.PathCounters.Fallbacks", "cluster's UD tests count the mgets punted from UD back to RC"},
	{"memcheck.Mode.Fleet", "cluster's TestModesComposed skips the rows a cluster.Client cannot play"},
	{"memcheck.Mode.Options", "cluster's TestModesComposed arms each row's options on its deployment"},
	{"memcheck.Mode.Path", "cluster's TestModesComposed checks the row's path served reads"},
	{"simnet.FaultConfig.CorruptRate", "verbs' corruption test sets it; kept for the corrupting-fabric fault model (ROADMAP item 9)"},
	{"simnet.FaultInjector.DropNext", "the fault tests of verbs, sockstream, cluster and memcached drop a scripted run of frames"},
	{"simnet.FaultInjector.Heal", "the fault tests of ucr and cluster lift a partition mid-test"},
	{"ucr.Config.SRQBuffers", "cluster's TestSRQCreditExhaustionBackpressure shrinks the shared receive pool to 4"},
	{"verbs.CQ.Len", "ucr's sweep tests count the completions left on a context's CQ"},
	{"verbs.ErrRefused", "ucr's TestDialUnknownService checks a dial to an unknown service is refused"},
}

// TestExportedSurfaceIsUsed keeps the exported surface of internal/ the
// size its callers need. It checks every exported function, method,
// type, constant, package-level variable, and field of an exported
// struct type. A name counts as used when a non-test file of another
// package in the module — under internal/, cmd/, examples/, benchmark/
// or the root — resolves an identifier to it (a field named as a
// composite-literal key included); a type also when it appears in the
// signature or type of a used name; a field also when another package
// hands a struct holding it to fmt, whose %v and %+v print field names
// (unless the struct prints through a String or Error method); a
// method also when it implements a method of an interface its receiver
// type satisfies (any interface in the module, error, fmt.Stringer,
// heap.Interface, io.Reader, io.Writer, or the Unwrap() error form
// errors.Is reads). Test files never count. Every unused export must be
// unexported, deleted, or listed in surfaceAllowlist with its reason; a
// listed name that is used or gone fails the test too.
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
// test-only function, type, constant, variable and field and a stale
// allowlist entry are flagged, and an interface implementation, an
// Unwrap, a generic method reached only through an instantiation, a
// function only a benchmark/ directory calls, a type reached only
// through a used function's result, a field set by a composite literal
// and a field another package prints with fmt are not.
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
		"lib.Cfg.TestField: exported, but no non-test code outside its package uses it",
		"lib.Stale: allowlisted, but it is used outside its package or no longer exists",
		"lib.TestConst: exported, but no non-test code outside its package uses it",
		"lib.TestOnly: exported, but no non-test code outside its package uses it",
		"lib.TestType: exported, but no non-test code outside its package uses it",
		"lib.TestVar: exported, but no non-test code outside its package uses it",
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
			out = append(out, name+": exported, but no non-test code outside its package uses it")
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
// context selects it, and returns the exported names of the packages
// under internal/ that the rule of TestExportedSurfaceIsUsed finds
// unused, sorted.
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
	errIface, stringer := ifaces[0], ifaces[2]
	for _, p := range l.pkgs {
		for _, named := range namedTypes(p.pkg) {
			if it, ok := named.Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
	}

	used := usage{}
	for _, p := range l.pkgs {
		for _, obj := range p.info.Uses {
			if obj.Pkg() == nil || obj.Pkg() == p.pkg {
				continue
			}
			switch o := obj.(type) {
			case *types.Func:
				used.mark(o.Origin())
			case *types.Var:
				used.mark(o.Origin())
			default:
				used.mark(obj)
			}
		}
		// fmt prints a struct operand's fields by name, unless it prints
		// through the operand's String or Error method.
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !callsFmt(p.info, call) {
					return true
				}
				for _, arg := range call.Args {
					t := p.info.TypeOf(arg)
					if types.Implements(t, errIface) || types.Implements(t, stringer) {
						continue
					}
					if ptr, ok := t.(*types.Pointer); ok {
						t = ptr.Elem()
					}
					if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != p.pkg {
						used.markPrinted(named)
					}
				}
				return true
			})
		}
	}
	// A method that implements an interface method is reached through
	// the interface, and so are the types in its signature.
	for _, p := range l.pkgs {
		for _, named := range namedTypes(p.pkg) {
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && implementsAny(named, m.Name(), ifaces) {
					used.mark(m)
				}
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
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				unused = append(unused, rel+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !used[m] {
					unused = append(unused, rel+"."+name+"."+m.Name())
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok && tn.Exported() {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() && !f.Embedded() && !used[f] {
						unused = append(unused, rel+"."+name+"."+f.Name())
					}
				}
			}
		}
	}
	sort.Strings(unused)
	return unused, nil
}

// usage holds every object of the module the rule counts as used.
type usage map[types.Object]bool

// mark records obj as used, and every type its declaration mentions: a
// caller of a used name needs them. A struct type brings only its
// embedded fields; its other fields are checked one by one.
func (u usage) mark(obj types.Object) {
	if u[obj] {
		return
	}
	u[obj] = true
	tn, ok := obj.(*types.TypeName)
	if !ok || tn.IsAlias() {
		u.markType(obj.Type())
		return
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		u.markType(tn.Type().Underlying())
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Embedded() {
			u.markType(st.Field(i).Type())
		}
	}
}

// markType marks the defined and alias types t is built from.
func (u usage) markType(t types.Type) {
	switch t := t.(type) {
	case *types.Named:
		u.mark(t.Origin().Obj())
		for i := 0; i < t.TypeArgs().Len(); i++ {
			u.markType(t.TypeArgs().At(i))
		}
	case *types.Alias:
		u.mark(t.Obj())
	case *types.Pointer:
		u.markType(t.Elem())
	case *types.Slice:
		u.markType(t.Elem())
	case *types.Array:
		u.markType(t.Elem())
	case *types.Chan:
		u.markType(t.Elem())
	case *types.Map:
		u.markType(t.Key())
		u.markType(t.Elem())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			u.markType(t.At(i).Type())
		}
	case *types.Signature:
		u.markType(t.Params())
		u.markType(t.Results())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			u.markType(t.Field(i).Type())
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			u.markType(t.Method(i).Type())
		}
	}
}

// markPrinted marks every field fmt's %v prints for a value of type t.
func (u usage) markPrinted(t types.Type) {
	switch t := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); !u[f] {
				u[f] = true
				u.markPrinted(f.Type())
			}
		}
	case *types.Slice:
		u.markPrinted(t.Elem())
	case *types.Array:
		u.markPrinted(t.Elem())
	case *types.Map:
		u.markPrinted(t.Key())
		u.markPrinted(t.Elem())
	}
}

// callsFmt reports whether call calls a function of package fmt.
func callsFmt(info *types.Info, call *ast.CallExpr) bool {
	fn := call.Fun
	if sel, ok := fn.(*ast.SelectorExpr); ok {
		fn = sel.Sel
	}
	id, ok := fn.(*ast.Ident)
	if !ok {
		return false
	}
	f, ok := info.Uses[id].(*types.Func)
	return ok && f.Pkg() != nil && f.Pkg().Path() == "fmt"
}

// namedTypes returns the defined types declared at pkg's top level.
func namedTypes(pkg *types.Package) []*types.Named {
	var out []*types.Named
	for _, name := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
			if named, ok := tn.Type().(*types.Named); ok {
				out = append(out, named)
			}
		}
	}
	return out
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
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
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
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	pkg, err := (&types.Config{Importer: l}).Check(p, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	sp := &srcPackage{pkg: pkg, info: info, files: files}
	l.pkgs[p] = sp
	return sp, nil
}
