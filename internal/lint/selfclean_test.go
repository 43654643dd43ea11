package lint_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

var (
	treeOnce      sync.Once
	treeModule    []*lint.Package // the module's ./...
	treeBenchmark []*lint.Package // benchmark/'s ./..., a module of its own
	treeErr       error
)

// loadTree type-checks the module and benchmark/ once per test binary,
// through one Loader, so the standard-library closure is checked once
// and a module object used from benchmark/ is the same types.Object.
func loadTree(t *testing.T) (module, benchmark []*lint.Package) {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the full module; skipped in -short mode")
	}
	treeOnce.Do(func() {
		l := lint.NewLoader("../..")
		if treeModule, treeErr = l.Load("./..."); treeErr != nil {
			return
		}
		l.Dir = "../../benchmark"
		treeBenchmark, treeErr = l.Load("./...")
	})
	if treeErr != nil {
		t.Fatal(treeErr)
	}
	if len(treeModule) == 0 || len(treeBenchmark) == 0 {
		t.Fatal("no packages loaded")
	}
	return treeModule, treeBenchmark
}

// TestRepoClean runs every analyzer over the whole module: the tree must
// lint clean so CI can treat any diagnostic as a regression.
func TestRepoClean(t *testing.T) {
	pkgs, _ := loadTree(t)
	// Six analyzers were deleted with evidence (DESIGN §8); a fifth one
	// here is a decision to record there, not drift.
	if n := len(lint.All()); n != 4 {
		t.Errorf("lint.All() has %d analyzers, want 4", n)
	}
	diags, err := lint.Run(pkgs, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestProductionCodeHasCallers fails on every package-level func, type,
// const and var, and every method, declared in a non-test file of the
// module that no non-test file of the module or of benchmark/ uses: code
// that only tests call belongs in the tests. A declaration's uses of
// itself (recursion) and a method's receiver type do not count as uses.
//
// Not checked: main, init and _; struct fields; a method that
// implements an interface method (of an interface declared in a loaded
// package or exported by a package one imports, of error, or the
// unnamed Unwrap() error the errors package asserts); and the
// declarations of a test-support package, one whose name ends in "test"
// (httptest's convention). Nothing else may import a test-support
// package.
func TestProductionCodeHasCallers(t *testing.T) {
	module, benchmark := loadTree(t)
	pkgs := append(append([]*lint.Package(nil), module...), benchmark...)

	notUses := map[*ast.Ident]bool{}
	for _, p := range pkgs {
		for _, f := range p.Syntax {
			for id, node := range decls(f) {
				self := p.TypesInfo.Defs[id]
				ast.Inspect(node, func(n ast.Node) bool {
					if use, ok := n.(*ast.Ident); ok && origin(p.TypesInfo.Uses[use]) == self {
						notUses[use] = true
					}
					return true
				})
				if fn, ok := node.(*ast.FuncDecl); ok && fn.Recv != nil {
					ast.Inspect(fn.Recv, func(n ast.Node) bool {
						if use, ok := n.(*ast.Ident); ok {
							notUses[use] = true
						}
						return true
					})
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for _, p := range pkgs {
		for id, obj := range p.TypesInfo.Uses {
			if !notUses[id] {
				used[origin(obj)] = true
			}
		}
	}

	// Interfaces by method name.
	ifaces := map[string][]*types.Interface{}
	addIface := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
		}
	}
	errType := types.Universe.Lookup("error").Type()
	addIface(errType.Underlying().(*types.Interface))
	unwrap := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false)
	addIface(types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap", unwrap)}, nil).Complete())
	loaded, scanned := map[*types.Package]bool{}, map[*types.Package]bool{}
	for _, p := range pkgs {
		loaded[p.Types] = true
	}
	for _, p := range pkgs {
		for _, tp := range append([]*types.Package{p.Types}, p.Types.Imports()...) {
			if scanned[tp] {
				continue
			}
			scanned[tp] = true
			for _, name := range tp.Scope().Names() {
				tn, ok := tp.Scope().Lookup(name).(*types.TypeName)
				if !ok || !(loaded[tp] || tn.Exported()) {
					continue
				}
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() {
					addIface(it)
				}
			}
		}
	}
	implements := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		named := recv.Type()
		if ptr, ok := named.(*types.Pointer); ok {
			named = ptr.Elem()
		}
		for _, it := range ifaces[fn.Name()] {
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
		return false
	}

	support := func(tp *types.Package) bool { return strings.HasSuffix(tp.Name(), "test") }
	var dead []string
	for _, p := range module {
		if support(p.Types) {
			continue
		}
		for _, imp := range p.Types.Imports() {
			if support(imp) {
				t.Errorf("%s imports test-support package %s", p.PkgPath, imp.Path())
			}
		}
		for _, f := range p.Syntax {
			for id := range decls(f) {
				obj := p.TypesInfo.Defs[id]
				if id.Name == "_" || used[obj] || (obj.Parent() == p.Types.Scope() && (id.Name == "main" || id.Name == "init")) {
					continue
				}
				if fn, ok := obj.(*types.Func); ok && implements(fn) {
					continue
				}
				dead = append(dead, p.Fset.Position(id.Pos()).String()+": "+describe(obj))
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller outside _test.go files", d)
	}
}

// decls maps each name a file declares at package level — funcs,
// methods, types, consts and vars — to its declaration.
func decls(f *ast.File) map[*ast.Ident]ast.Node {
	out := map[*ast.Ident]ast.Node{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			out[d.Name] = d
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					out[s.Name] = s
				case *ast.ValueSpec:
					for _, n := range s.Names {
						out[n] = s
					}
				}
			}
		}
	}
	return out
}

// origin maps a use of a generic instance to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// describe names obj as a reader finds it: pkg.Name or (pkg.T).Method.
func describe(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			return "(" + types.TypeString(recv.Type(), (*types.Package).Name) + ")." + fn.Name()
		}
	}
	return obj.Pkg().Name() + "." + obj.Name()
}
