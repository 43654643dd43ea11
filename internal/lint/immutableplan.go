package lint

import (
	"fmt"
	"go/ast"
	"go/types"

	"repro/internal/lint/flow"
)

// KnownImmutable mirrors the //simlint:immutable annotations across
// package boundaries: a Pass sees only its own package's comments, so a
// package storing to another package's frozen type (csim writing
// through csim.Config.Plan, say) could not see the marker. The manifest
// makes the contract visible everywhere; when the defining package
// itself is analyzed, each listed type must carry the in-source marker,
// so the two spellings cannot drift apart.
var KnownImmutable = map[string][]string{
	"repro/internal/macro":   {"Macro", "Plan"},
	"repro/internal/netlist": {"Circuit", "Gate"},
}

// ImmutablePlan proves the shared-plan discipline the service tier's
// compiled-circuit cache rests on: a type marked //simlint:immutable
// (macro plans, post-Build netlist arenas, recorded good traces) is
// handed concurrently to any number of jobs, so every store to it must
// happen before publication — inside its construction closure.
var ImmutablePlan = &Analyzer{
	Name: "immutableplan",
	Doc: `forbid post-construction stores to //simlint:immutable types

A type marked //simlint:immutable is frozen once its constructor
returns; the compiled-circuit cache shares such values across
concurrently running jobs, so a single late store is a data race.

The analyzer classifies every function in the package through the
flow-layer call graph. Construction closure: functions whose results
reach the marked type (constructors like Extract or Build), functions
marked //simlint:builder <Type>, and helpers reachable only from those.
Everything else — every exported function or method plus whatever they
transitively call — runs after publication, and a field, slice-element
or map store to the marked type there is reported with the
store-to-publication call path (the exact shape of the PR 5 macro-table
lazy-memo race, now a compile-time diagnostic).

Known approximations: stores through an alias that severs the selector
chain from a marked base (p := &c.Gates[i] in an unmarked type) are
only seen when the aliased element type is itself marked, and closures
created during construction are attributed to their creator even if
they escape into the published value.`,
	Run: runImmutablePlan,
}

func runImmutablePlan(pass *Pass) error {
	marked := markedImmutable(pass)
	manifestCheck(pass, marked)
	isImm := func(t types.Type) (string, bool) { return immutableName(t, marked) }

	g := flow.Build(pass.Fset, pass.Files, pass.TypesInfo)
	builders := map[*flow.Node]bool{}
	for _, n := range g.Nodes() {
		if n.Func != nil && (signatureBuilds(pass, n, marked) || hasBuilderMarker(pass, n)) {
			builders[n] = true
		}
	}

	// Publication roots: exported non-builders (callable on a shared
	// value from anywhere) plus non-builder functions nothing in the
	// package calls (main, handlers registered by value, ...).
	var entries []*flow.Node
	for _, n := range g.Nodes() {
		if builders[n] || n.Func == nil {
			continue
		}
		if n.Exported() || len(g.CallersOf(n)) == 0 {
			entries = append(entries, n)
		}
	}
	// Post-publication closure: everything reachable from an entry
	// without passing through a builder — calling a constructor starts a
	// fresh construction context, so traversal stops there.
	reached := g.Reach(entries, func(n *flow.Node) bool { return !builders[n] })

	for _, n := range g.Nodes() {
		if builders[n] {
			continue
		}
		if _, ok := reached[n]; !ok {
			continue // construction-only helper
		}
		path := flow.Path(reached, n)
		forEachStore(pass, n, func(pos ast.Node, target string) {
			pass.Reportf(pos.Pos(), "store to %s after construction (path: %s); the type is marked //simlint:immutable and shared across concurrent simulations",
				target, path)
		}, isImm)
	}
	return nil
}

// markedImmutable collects the package's //simlint:immutable types.
func markedImmutable(pass *Pass) map[*types.TypeName]bool {
	marked := map[*types.TypeName]bool{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if !hasMarker(ts.Doc, MarkerImmutable) && !(len(gd.Specs) == 1 && hasMarker(gd.Doc, MarkerImmutable)) {
					continue
				}
				if tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
					marked[tn] = true
				}
			}
		}
	}
	return marked
}

// manifestCheck keeps KnownImmutable honest: when the defining package
// is being analyzed, every manifest entry must exist and carry the
// in-source marker.
func manifestCheck(pass *Pass, marked map[*types.TypeName]bool) {
	names, ok := KnownImmutable[pass.Pkg.Path()]
	if !ok {
		return
	}
	byName := map[string]bool{}
	for tn := range marked {
		byName[tn.Name()] = true
	}
	for _, name := range names {
		if byName[name] {
			continue
		}
		pos := pass.Files[0].Package
		if obj := pass.Pkg.Scope().Lookup(name); obj != nil {
			pos = obj.Pos()
		}
		pass.Reportf(pos, "type %s is listed in lint.KnownImmutable but does not carry //simlint:immutable (manifest drift)", name)
	}
}

// immutableName reports whether t (possibly behind a pointer) is a
// marked or manifest-listed immutable type, returning its pkg.Name
// rendering.
func immutableName(t types.Type, marked map[*types.TypeName]bool) (string, bool) {
	if t == nil {
		return "", false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if marked[obj] {
		return renderTypeName(obj), true
	}
	if obj.Pkg() != nil {
		for _, name := range KnownImmutable[obj.Pkg().Path()] {
			if name == obj.Name() {
				return renderTypeName(obj), true
			}
		}
	}
	return "", false
}

func renderTypeName(obj *types.TypeName) string {
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Name() + "." + obj.Name()
}

// signatureBuilds reports whether any result type of n reaches a marked
// type — returning *Plan, []*Macro, or a struct containing one all make
// the function a constructor (building a composite includes building
// its parts).
func signatureBuilds(pass *Pass, n *flow.Node, marked map[*types.TypeName]bool) bool {
	sig, ok := n.Func.Type().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if typeReachesImmutable(res.At(i).Type(), marked, map[types.Type]bool{}) {
			return true
		}
	}
	return false
}

func typeReachesImmutable(t types.Type, marked map[*types.TypeName]bool, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	if _, ok := immutableName(t, marked); ok {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		return typeReachesImmutable(u.Elem(), marked, seen)
	case *types.Slice:
		return typeReachesImmutable(u.Elem(), marked, seen)
	case *types.Array:
		return typeReachesImmutable(u.Elem(), marked, seen)
	case *types.Map:
		return typeReachesImmutable(u.Elem(), marked, seen)
	case *types.Chan:
		return typeReachesImmutable(u.Elem(), marked, seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if typeReachesImmutable(u.Field(i).Type(), marked, seen) {
				return true
			}
		}
	}
	return false
}

// hasBuilderMarker reports whether n's declaration carries
// //simlint:builder naming a marked (or manifest) type.
func hasBuilderMarker(pass *Pass, n *flow.Node) bool {
	if n.Decl == nil || n.Decl.Doc == nil {
		return false
	}
	arg, found := markerArg(n.Decl.Doc, MarkerBuilder)
	if !found {
		return false
	}
	if arg == "" {
		pass.Reportf(n.Decl.Pos(), "//simlint:builder requires the constructed type's name as argument")
		return false
	}
	return true
}

// forEachStore walks n's own body (nested literals are their own nodes)
// and invokes report for every store whose target chain is rooted in an
// immutable type: assignments (including op-assigns), ++/--, and the
// mutating builtins copy and clear.
func forEachStore(pass *Pass, n *flow.Node, report func(pos ast.Node, target string), isImm func(types.Type) (string, bool)) {
	body := n.Body()
	if body == nil {
		return
	}
	var visit func(node ast.Node) bool
	visit = func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			return false // separate node
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				checkStoreTarget(pass, lhs, report, isImm)
			}
		case *ast.IncDecStmt:
			checkStoreTarget(pass, node.X, report, isImm)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(node.Fun).(*ast.Ident); ok && len(node.Args) > 0 {
				if _, isBuiltin := pass.ObjectOf(id).(*types.Builtin); isBuiltin && (id.Name == "copy" || id.Name == "clear") {
					checkStoreTarget(pass, node.Args[0], report, isImm)
				}
			}
		}
		return true
	}
	ast.Inspect(body, visit)
}

// checkStoreTarget peels the assigned expression's selector/index/deref
// chain outward-in and reports the innermost base whose type is marked
// immutable: m.gateInstr[g] = v, c.Gates[i].Fanin = x, *p = Plan{} all
// resolve to their frozen root.
func checkStoreTarget(pass *Pass, e ast.Expr, report func(pos ast.Node, target string), isImm func(types.Type) (string, bool)) {
	orig := e
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if name, ok := isImm(pass.TypeOf(x.X)); ok {
				report(orig, fmt.Sprintf("(%s).%s", name, x.Sel.Name))
				return
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			if name, ok := isImm(pass.TypeOf(x.X)); ok {
				report(orig, "*"+name)
				return
			}
			e = x.X
		default:
			return
		}
	}
}
