package lint

import (
	"go/ast"
	"strings"
)

// The marker directives the analyzers key on. A marker is a comment line
// of the form //simlint:<name> placed in (or directly forming) the doc
// comment of a function or type declaration:
//
//	//simlint:hotpath
//	func (s *Simulator) evalRoot(r netlist.GateID) { ... }
//
// Like go:build or go:generate directives, marker lines are stripped from
// rendered documentation by gofmt/go doc, so they annotate without
// polluting docs.
const (
	// MarkerHotPath declares a function to be on the per-cycle hot path:
	// hotpathalloc forbids allocations, map iteration and observability
	// calls inside it.
	MarkerHotPath = "simlint:hotpath"
	// MarkerImmutable declares a type frozen once its constructor
	// returns: immutableplan reports any field/slice/map store to it
	// that is reachable — through the call graph — from outside the
	// construction closure.
	MarkerImmutable = "simlint:immutable"
	// MarkerBuilder declares a function part of an immutable type's
	// construction even though its signature does not return the type
	// (the netlist.Builder pattern); immutableplan permits its stores
	// and excludes it from publication reachability. The marker takes
	// the type name as its argument: //simlint:builder Circuit.
	MarkerBuilder = "simlint:builder"
	// MarkerGuardedBy, written //simlint:guarded_by(mu) on a struct
	// field, names the sibling mutex that must be held on every path to
	// any access of the field; guardedby checks it interprocedurally.
	MarkerGuardedBy = "simlint:guarded_by"
)

// hasMarker reports whether the comment group contains the given marker
// directive as its own line.
func hasMarker(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		if i := strings.IndexAny(text, " \t"); i >= 0 {
			// Directives take no arguments; ignore trailing text so a
			// stray "//simlint:hotpath because ..." still counts.
			text = text[:i]
		}
		if strings.TrimSpace(text) == marker {
			return true
		}
	}
	return false
}

// markerArg returns the argument of the first marker directive line in
// the comment group, in either spelling: "//simlint:builder Circuit"
// (space-separated) or "//simlint:guarded_by(mu)" (parenthesized).
// found reports whether the directive is present at all, even with an
// empty argument (so callers can flag a missing argument).
func markerArg(doc *ast.CommentGroup, marker string) (arg string, found bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		rest, ok := strings.CutPrefix(text, marker)
		if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t' && rest[0] != '(') {
			continue
		}
		rest = strings.TrimSpace(rest)
		if after, ok := strings.CutPrefix(rest, "("); ok {
			if i := strings.IndexByte(after, ')'); i >= 0 {
				return strings.TrimSpace(after[:i]), true
			}
			return "", true // unterminated parens: present, malformed
		}
		// Space form: the first word is the argument.
		if i := strings.IndexAny(rest, " \t"); i >= 0 {
			rest = rest[:i]
		}
		return rest, true
	}
	return "", false
}

// unparen strips any number of enclosing parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
