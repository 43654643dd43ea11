// Package flow is the interprocedural layer under the simlint analyzers:
// a per-package static call graph over go/ast + go/types (no x/tools),
// with reachability and call-path reconstruction on top. The concurrency
// analyzers (immutableplan, guardedby, goroutinelife) consume it to see
// facts that intraprocedural AST walks cannot — a store that happens two
// calls away from publication, a lock taken by the caller of a helper, a
// goroutine body behind a named function.
//
// The graph is deliberately per-package: an analyzer Pass covers one
// package's files, so cross-package edges are not built. Cross-package
// *types* still resolve; cross-package *calls* are opaque nodes. The
// analyzers compensate with package-path manifests where a contract
// spans packages (see lint.KnownImmutable).
//
// Approximations, all toward under-approximating the edge set (missed
// edges can hide a diagnostic, never invent one):
//
//   - only static calls are resolved: direct calls of package functions,
//     methods, and function literals. Calls through interface methods,
//     function-typed variables and method values produce no edge.
//   - a function literal gets a containment edge from its enclosing
//     function: creating the closure is treated as (potentially) running
//     it. Literals that escape into long-lived structures are therefore
//     attributed to their creator, not to the eventual caller.
package flow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Node is one function body in the analyzed package: a declared function
// or method (Func/Decl set) or a function literal (Lit/Encl set).
type Node struct {
	// Func is the declared function object; nil for literals.
	Func *types.Func
	// Decl is the declaration; nil for literals.
	Decl *ast.FuncDecl
	// Lit is the literal; nil for declared functions.
	Lit *ast.FuncLit
	// Encl is the node lexically enclosing a literal; nil for declared
	// functions and for literals in package-level initializers.
	Encl *Node

	// Calls are the static call sites inside this node's body, in source
	// order. Containment edges to nested literals are included.
	Calls []*Call

	callers []*Call
}

// Body returns the node's statement body (nil for bodyless declarations,
// e.g. assembly stubs).
func (n *Node) Body() *ast.BlockStmt {
	if n.Lit != nil {
		return n.Lit.Body
	}
	if n.Decl != nil {
		return n.Decl.Body
	}
	return nil
}

// Pos returns the node's declaration position.
func (n *Node) Pos() token.Pos {
	if n.Lit != nil {
		return n.Lit.Pos()
	}
	return n.Decl.Pos()
}

// Name renders the node for diagnostics: Extract, (*Macro).buildTable,
// or "func literal in <encl>".
func (n *Node) Name() string {
	if n.Func != nil {
		if recv := n.Func.Type().(*types.Signature).Recv(); recv != nil {
			return fmt.Sprintf("(%s).%s", types.TypeString(recv.Type(), func(p *types.Package) string { return "" }), n.Func.Name())
		}
		return n.Func.Name()
	}
	if n.Encl != nil {
		return "func literal in " + n.Encl.Name()
	}
	return "func literal"
}

// Exported reports whether the node is an exported declared function or
// an exported method (callable from outside the package once its receiver
// escapes). Literals are never exported.
func (n *Node) Exported() bool {
	return n.Func != nil && n.Func.Exported()
}

// Call is one static edge: Caller invokes Callee at Site. For a
// containment edge (enclosing function → nested literal) Site is the
// literal itself.
type Call struct {
	Caller *Node
	Callee *Node
	Site   ast.Node
}

// Graph is the package's static call graph.
type Graph struct {
	nodes []*Node
	byObj map[*types.Func]*Node
	byLit map[*ast.FuncLit]*Node
}

// Nodes returns every node in declaration order (literals follow their
// enclosing declaration).
func (g *Graph) Nodes() []*Node { return g.nodes }

// NodeOf returns the node for a declared function object, or nil.
func (g *Graph) NodeOf(fn *types.Func) *Node { return g.byObj[fn] }

// NodeOfLit returns the node for a function literal, or nil.
func (g *Graph) NodeOfLit(lit *ast.FuncLit) *Node { return g.byLit[lit] }

// CallersOf returns the edges targeting n.
func (g *Graph) CallersOf(n *Node) []*Call { return n.callers }

// Build constructs the call graph for one package's files.
func Build(fset *token.FileSet, files []*ast.File, info *types.Info) *Graph {
	g := &Graph{
		byObj: map[*types.Func]*Node{},
		byLit: map[*ast.FuncLit]*Node{},
	}
	// Phase 1: register every declared function so that forward calls
	// resolve regardless of declaration order.
	var roots []*Node
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			n := &Node{Func: fn, Decl: fd}
			g.nodes = append(g.nodes, n)
			g.byObj[fn] = n
			roots = append(roots, n)
		}
	}
	// Phase 2: walk bodies, materializing literals and recording edges.
	for _, n := range roots {
		g.walkBody(n, n.Decl.Body, info)
	}
	return g
}

// walkBody records n's call sites and materializes nested literals as
// their own nodes, attributing each call to its innermost enclosing
// function.
func (g *Graph) walkBody(n *Node, body *ast.BlockStmt, info *types.Info) {
	ast.Inspect(body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			lit := &Node{Lit: node, Encl: n}
			g.nodes = append(g.nodes, lit)
			g.byLit[node] = lit
			g.addEdge(n, lit, node)
			g.walkBody(lit, node.Body, info)
			return false // the literal's calls belong to the literal
		case *ast.CallExpr:
			if callee := g.resolve(node, info); callee != nil {
				g.addEdge(n, callee, node)
			}
		}
		return true
	})
}

// resolve finds the in-package node a call statically targets, or nil
// for dynamic, cross-package and builtin calls. Direct literal calls
// (func(){...}()) resolve to the literal's node.
func (g *Graph) resolve(call *ast.CallExpr, info *types.Info) *Node {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return g.byLit[fun] // registered by the enclosing Inspect before descent
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return g.byObj[fn]
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return g.byObj[fn]
		}
	}
	return nil
}

func (g *Graph) addEdge(from, to *Node, site ast.Node) {
	e := &Call{Caller: from, Callee: to, Site: site}
	from.Calls = append(from.Calls, e)
	to.callers = append(to.callers, e)
}

// Reach runs a BFS from roots and returns, for every reached node, the
// tree edge it was first discovered through (nil for the roots
// themselves). Edges are only followed *out of* nodes for which through
// returns true — a reached node failing the predicate is recorded but
// not expanded, so e.g. immutableplan can stop propagation at
// constructor boundaries. A nil through expands everything.
func (g *Graph) Reach(roots []*Node, through func(*Node) bool) map[*Node]*Call {
	reached := make(map[*Node]*Call, len(roots))
	queue := make([]*Node, 0, len(roots))
	for _, r := range roots {
		if _, ok := reached[r]; ok {
			continue
		}
		reached[r] = nil
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if through != nil && !through(n) {
			continue
		}
		for _, e := range n.Calls {
			if _, ok := reached[e.Callee]; ok {
				continue
			}
			reached[e.Callee] = e
			queue = append(queue, e.Callee)
		}
	}
	return reached
}

// Path reconstructs the BFS-tree call chain from a root to target as a
// " → "-joined name list, e.g. "EvalStuck → memoize". It returns "" when
// target was not reached.
func Path(reached map[*Node]*Call, target *Node) string {
	if _, ok := reached[target]; !ok {
		return ""
	}
	var names []string
	for n := target; n != nil; {
		names = append(names, n.Name())
		e := reached[n]
		if e == nil {
			break
		}
		n = e.Caller
	}
	// Reverse into root-first order.
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	out := ""
	for i, s := range names {
		if i > 0 {
			out += " → "
		}
		out += s
	}
	return out
}
