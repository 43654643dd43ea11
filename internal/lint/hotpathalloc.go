package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotPathAlloc enforces the no-allocation discipline on functions marked
// //simlint:hotpath: the concurrent simulator's per-cycle walk must not
// allocate (arena elements are recycled through a free list precisely so
// the steady state is allocation-free) and must not call into the
// observability layer (PR 2's no-Heisenberg rule: counters are plain ints
// flushed once per cycle, never per-event metric calls).
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc: `forbid allocations and observability calls in //simlint:hotpath functions

Reports, inside any function whose doc comment carries the
//simlint:hotpath directive:

  - make and new calls, map/slice composite literals, and composite
    literals whose address is taken (all heap-allocate);
  - function literals (closures capture and escape);
  - string <-> []byte/[]rune conversions (copy + allocate);
  - go and defer statements;
  - range over a map (hot-path state lives in dense slices, and the
    randomized order would make runs nondeterministic);
  - calls into package fmt (formatting allocates);
  - any call into the observability layer (repro/internal/obs) — hot
    paths keep plain counters and flush once per cycle.`,
	Run: runHotPathAlloc,
}

func runHotPathAlloc(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasMarker(fn.Doc, MarkerHotPath) {
				continue
			}
			checkHotPathBody(pass, fn)
		}
	}
	return nil
}

func checkHotPathBody(pass *Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Report(n.Pos(), "function literal in hot path: closures allocate; hoist it out of the //simlint:hotpath function")
			return false // inner violations are subsumed
		case *ast.GoStmt:
			pass.Report(n.Pos(), "go statement in hot path allocates a goroutine")
			return false
		case *ast.DeferStmt:
			pass.Report(n.Pos(), "defer in hot path: run the call directly")
			return false
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if _, ok := unparen(n.X).(*ast.CompositeLit); ok {
					pass.Report(n.Pos(), "address of composite literal escapes to the heap in hot path")
					return false
				}
			}
		case *ast.CompositeLit:
			if t := pass.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					pass.Report(n.Pos(), "map literal allocates in hot path")
					return false
				case *types.Slice:
					pass.Report(n.Pos(), "slice literal allocates in hot path")
					return false
				}
			}
		case *ast.RangeStmt:
			if t := pass.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					pass.Report(n.Pos(), "map iteration in hot path: order is randomized per run; keep the data in a slice")
				}
			}
		case *ast.CallExpr:
			checkHotPathCall(pass, n)
		}
		return true
	})
}

func checkHotPathCall(pass *Pass, call *ast.CallExpr) {
	// Type conversions: string <-> []byte / []rune copy and allocate.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type, pass.TypeOf(call.Args[0])
		if from != nil && stringBytesConv(to, from) {
			pass.Reportf(call.Pos(), "conversion %s -> %s allocates in hot path", from, to)
		}
		return
	}

	var obj types.Object
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.ObjectOf(fun)
	case *ast.SelectorExpr:
		obj = pass.ObjectOf(fun.Sel)
	}
	switch obj := obj.(type) {
	case *types.Builtin:
		switch obj.Name() {
		case "make":
			pass.Report(call.Pos(), "make allocates in hot path: preallocate in the constructor and reuse")
		case "new":
			pass.Report(call.Pos(), "new allocates in hot path: preallocate in the constructor and reuse")
		}
	case *types.Func:
		pkg := obj.Pkg()
		if pkg == nil {
			return
		}
		switch {
		case pkg.Path() == "fmt":
			pass.Reportf(call.Pos(), "fmt.%s in hot path formats and allocates", obj.Name())
		case isObsPath(pkg.Path()):
			pass.Reportf(call.Pos(),
				"observability call %s.%s in hot path: keep plain counters and flush once per cycle (no-Heisenberg rule)",
				pkg.Name(), obj.Name())
		}
	}
}

// isObsPath reports whether the package path is the observability layer.
func isObsPath(path string) bool {
	return path == "repro/internal/obs" || strings.HasSuffix(path, "/internal/obs")
}

// stringBytesConv reports whether converting from -> to crosses the
// string/byte-slice (or string/rune-slice) boundary.
func stringBytesConv(to, from types.Type) bool {
	return (isString(to) && isByteOrRuneSlice(from)) ||
		(isString(from) && isByteOrRuneSlice(to))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch b.Kind() {
	case types.Byte, types.Rune: // aliases of Uint8 / Int32
		return true
	}
	return false
}
