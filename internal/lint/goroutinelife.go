package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/flow"
)

// GoroutineLife requires every goroutine to have a provable end: a
// WaitGroup pairing, a Wait of its own, or a cancellable context in
// scope.
var GoroutineLife = &Analyzer{
	Name: "goroutinelife",
	Doc: `require every goroutine to have a bounded lifetime

A worker spawned per shard or per server must be joinable or
cancellable — an untracked goroutine outlives its job, holds its
arena, and turns a cancelled request into a leak. Each go statement is
accepted when the spawned body (a literal, or the declaration a named
call resolves to through the flow graph):

  - calls X.Done() on a sync.WaitGroup for which the spawning body
    calls X.Add(...) before the go statement (the canonical
    Add/go/defer-Done shape), or
  - calls Wait() on a sync.WaitGroup itself (a joiner goroutine whose
    lifetime is bounded by the workers it collects), or
  - references a context.Context — directly or via the spawn's
    arguments — so cancellation can reach it.

Anything else is a leak-shaped spawn.`,
	Run: runGoroutineLife,
}

func runGoroutineLife(pass *Pass) error {
	g := flow.Build(pass.Fset, pass.Files, pass.TypesInfo)
	for _, n := range g.Nodes() {
		body := n.Body()
		if body == nil {
			continue
		}
		ast.Inspect(body, func(node ast.Node) bool {
			if _, ok := node.(*ast.FuncLit); ok {
				return false // literals are their own nodes
			}
			gs, ok := node.(*ast.GoStmt)
			if !ok {
				return true
			}
			pass.checkSpawn(g, n, gs)
			return true
		})
	}
	return nil
}

// checkSpawn validates one go statement inside spawner.
func (p *Pass) checkSpawn(g *flow.Graph, spawner *flow.Node, gs *ast.GoStmt) {
	// A context-typed argument at the spawn is cancellation reaching the
	// goroutine, whatever the body does with it.
	for _, arg := range gs.Call.Args {
		if isContextType(p.TypeOf(arg)) {
			return
		}
	}
	body := p.spawnedBody(g, gs.Call)
	if body == nil {
		p.Reportf(gs.Pos(), "cannot resolve the spawned function statically; tie the goroutine to a WaitGroup or context the analyzer can see")
		return
	}
	var doneBases []string
	waits := false
	ctx := false
	ast.Inspect(body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.CallExpr:
			if base, name := p.waitGroupOp(node); name != "" {
				switch name {
				case "Done":
					doneBases = append(doneBases, base)
				case "Wait":
					waits = true
				}
			}
		case *ast.Ident:
			if obj := p.TypesInfo.Uses[node]; obj != nil && isContextType(obj.Type()) {
				ctx = true
			}
		}
		return true
	})
	if waits || ctx {
		return
	}
	for _, base := range doneBases {
		if base != "" && p.addBefore(spawner, base, gs.Pos()) {
			return
		}
	}
	if len(doneBases) > 0 {
		p.Reportf(gs.Pos(), "goroutine calls Done() but the spawning body has no matching Add() before the go statement")
		return
	}
	p.Reportf(gs.Pos(), "goroutine has no bounded lifetime: no WaitGroup Done/Add pair, no Wait, and no context reaches it (leak-shaped spawn)")
}

// spawnedBody resolves the body the go statement runs: the literal
// itself, or the in-package declaration of a directly named function.
func (p *Pass) spawnedBody(g *flow.Graph, call *ast.CallExpr) *ast.BlockStmt {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return fun.Body
	case *ast.Ident:
		if fn, ok := p.TypesInfo.Uses[fun].(*types.Func); ok {
			if n := g.NodeOf(fn); n != nil {
				return n.Body()
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := p.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			if n := g.NodeOf(fn); n != nil {
				return n.Body()
			}
		}
	}
	return nil
}

// addBefore reports whether spawner's body contains base.Add(...)
// positioned before pos. The position check keeps a later, unrelated
// Add from excusing an earlier spawn.
func (p *Pass) addBefore(spawner *flow.Node, base string, pos token.Pos) bool {
	found := false
	ast.Inspect(spawner.Body(), func(node ast.Node) bool {
		if found {
			return false
		}
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if b, name := p.waitGroupOp(call); name == "Add" && b == base && call.Pos() < pos {
			found = true
		}
		return true
	})
	return found
}

// waitGroupOp classifies a call as a sync.WaitGroup method, returning
// the canonical receiver ("wg", "s.workerWG") and the method name.
func (p *Pass) waitGroupOp(call *ast.CallExpr) (base, name string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, ok := p.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || !isWaitGroupType(recv.Type()) {
		return "", ""
	}
	return canonicalExpr(sel.X), fn.Name()
}

// isContextType reports whether t is context.Context (possibly behind an
// alias).
func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isWaitGroupType reports whether t is sync.WaitGroup or *sync.WaitGroup.
func isWaitGroupType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}
