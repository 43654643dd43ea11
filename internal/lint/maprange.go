package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// MapRange forbids map iteration where ordering matters. Go randomizes
// map iteration order per range statement, so a map walk in the per-cycle
// hot path or in a shard-result merge would make runs nondeterministic
// — the parallel engine's contract is bit-identical results regardless of
// worker count, and the differential tests compare against a serial
// oracle element by element.
var MapRange = &Analyzer{
	Name: "maprange",
	Doc: `forbid map iteration in hot-path and deterministic-merge code

Reports any range statement over a map inside:

  - functions marked //simlint:hotpath (map walks also defeat the
    no-allocation discipline: hot-path state lives in dense slices);
  - functions marked //simlint:deterministic;
  - functions whose name starts with "Merge" (the shard result/stats
    merge contract is deterministic output).

Iterate a sorted slice of keys, or keep the data in a slice, instead.`,
	Run: runMapRange,
}

func runMapRange(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			why := ""
			switch {
			case hasMarker(fn.Doc, MarkerHotPath):
				why = "//simlint:hotpath function"
			case hasMarker(fn.Doc, MarkerDeterministic):
				why = "//simlint:deterministic function"
			case strings.HasPrefix(fn.Name.Name, "Merge"):
				why = "merge function (must be deterministic)"
			default:
				continue
			}
			checkMapRange(pass, fn, why)
		}
	}
	return nil
}

func checkMapRange(pass *Pass, fn *ast.FuncDecl, why string) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); isMap {
			pass.Reportf(rng.Pos(),
				"map iteration in %s: order is randomized per run; range a sorted slice instead", why)
		}
		return true
	})
}
