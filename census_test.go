package oooback

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// censusAllow lists the exported identifiers of ./internal/... that no
// non-test file of the module refers to, each with the reason it stays.
// TestExportedSurfaceCensus fails on any such identifier that is not here —
// and on any entry that has gained a reference or no longer exists, so the
// list cannot go stale. A reason names either the open ROADMAP item about to
// use the identifier ("item <n>: ...") or the test packages that share it
// as a fixture ("fixture: ..."); censusReason enforces the two forms.
var censusAllow = map[string]string{
	"netsim.SimulateRingAllReduce":   "item 15: the event-level ring the served data-parallel plans get checked against",
	"nn.StateSnapshot":               "fixture: optimizer-state oracle of the nn and train differential suites",
	"nn.StateSnapshotsEqual":         "fixture: optimizer-state oracle of the nn and train differential suites",
	"plansvc/warmcache.Cache.Loaded": "fixture: reboot-replay count the warmcache and plansvc tests assert",
	"tensor.FromSlice":               "fixture: literal-tensor constructor of the tensor and nn tests",
	"tensor.MaxAbsDiff":              "fixture: tolerance assertion of the tensor and nn tests",
	"tensor.Tensor.At":               "fixture: indexed element read of the tensor, nn and train tests",
}

// censusReason is the form every censusAllow reason takes.
var censusReason = regexp.MustCompile(`^(item [0-9]+|fixture):`)

// censusModule is the type-checked module: every package's non-test files,
// checked from source with the standard library's own importer behind it.
type censusModule struct {
	root  string
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	infos map[string]*types.Info
}

func (m *censusModule) Import(path string) (*types.Package, error) {
	if path != "oooback" && !strings.HasPrefix(path, "oooback/") {
		return m.std.Import(path)
	}
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(m.root, strings.TrimPrefix(path, "oooback"))
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, filepath.Base(name)); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(m.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: m}).Check(path, m.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	m.pkgs[path], m.infos[path] = pkg, info
	return pkg, nil
}

// TestExportedSurfaceCensus is the surface census of ROADMAP item 9: an
// exported function, type, variable, constant or method declared in
// ./internal/... must be referred to by some non-test file of the module
// (any package, its own included), or carry a reason in censusAllow. A
// method also counts as referred to when a call through an interface reaches
// it: its receiver implements an interface of the module one of whose
// methods, of that name, is called somewhere. Struct fields are not counted.
func TestExportedSurfaceCensus(t *testing.T) {
	m := &censusModule{root: ".", fset: token.NewFileSet(), pkgs: map[string]*types.Package{}, infos: map[string]*types.Info{}}
	m.std = importer.ForCompiler(m.fset, "source", nil)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if src, _ := filepath.Glob(filepath.Join(path, "*.go")); len(src) == 0 {
			return nil
		}
		if _, err := m.Import(filepath.ToSlash(filepath.Join("oooback", path))); err != nil && !strings.Contains(err.Error(), "no Go files") {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	used := map[types.Object]bool{}
	ifaceCalls := map[*types.Func]bool{} // interface methods the module calls
	for _, info := range m.infos {
		for _, obj := range info.Uses {
			fn, ok := obj.(*types.Func)
			if ok {
				obj = fn.Origin() // a method of an instantiated generic type counts for the generic's
			}
			used[obj] = true
			if ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					ifaceCalls[fn] = true
				}
			}
		}
	}
	reached := func(fn *types.Func, recv types.Type) bool {
		for call := range ifaceCalls {
			if call.Name() != fn.Name() {
				continue
			}
			iface := call.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
				return true
			}
		}
		return false
	}

	var orphans []string
	for path, pkg := range m.pkgs {
		if !strings.HasPrefix(path, "oooback/internal/") {
			continue
		}
		short := strings.TrimPrefix(path, "oooback/internal/")
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			if !used[obj] {
				orphans = append(orphans, short+"."+name)
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
				if fn := named.Method(i); fn.Exported() && !used[fn] && !reached(fn, named) {
					orphans = append(orphans, short+"."+name+"."+fn.Name())
				}
			}
		}
	}
	sort.Strings(orphans)
	found := map[string]bool{}
	for _, o := range orphans {
		found[o] = true
		if censusAllow[o] == "" {
			t.Errorf("%s is exported but no non-test file refers to it: delete it, unexport it, or give censusAllow a reason", o)
		}
	}
	for o, reason := range censusAllow {
		if !found[o] {
			t.Errorf("censusAllow lists %s, which is referred to or gone: drop the entry", o)
		}
		if !censusReason.MatchString(reason) {
			t.Errorf("censusAllow reason for %s is %q: it must start with \"item <n>:\" (the open ROADMAP item that will use it) or \"fixture:\" (a helper the tests of two or more packages call)", o, reason)
		}
	}
}
