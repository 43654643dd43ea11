package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/flow"
)

// GuardedBy enforces //simlint:guarded_by(mu) field annotations: every
// access to an annotated field must happen on a path where the named
// sibling mutex is held, with the requirement propagated through
// locked()-style helpers via the flow-layer call graph.
var GuardedBy = &Analyzer{
	Name: "guardedby",
	Doc: `require the named mutex around accesses to //simlint:guarded_by fields

A struct field annotated //simlint:guarded_by(mu) may only be read or
written while the sibling mutex field mu (sync.Mutex or sync.RWMutex)
is held. The analyzer walks each function linearly, tracking the set of
held mutexes: Lock/RLock acquire, Unlock/RUnlock release, a deferred
unlock keeps the mutex held to the end, branches merge by intersection
(a mutex counts as held after an if/else only when both arms hold it),
and sync.Cond.Wait is transparent (it reacquires before returning).

An access in a function that never locks is not immediately a bug — the
lock may be the caller's job. Such a requirement is propagated to every
call site through the call graph: an unexported helper is clean when
all of its callers hold the mapped mutex at the call (or themselves
propagate the requirement upward). An exported function, a function
with no in-package callers, or a call site that cannot be mapped back
(dynamic call, unmappable argument) ends propagation and the access is
reported.

Goroutine bodies start with no mutexes held regardless of what the
spawning function holds; other function literals inherit the held set
at their creation point.`,
	Run: runGuardedBy,
}

// guardedField is one annotated field: the field object plus the name
// of its sibling mutex field.
type guardedField struct {
	mutex string
}

type gbAccess struct {
	pos token.Pos
	// expr renders the access ("q.items"), key the required mutex
	// ("q.mu").
	expr, key string
	// baseVar is the root object of the access base when it is a plain
	// identifier (receiver, parameter or closed-over variable) — the
	// handle for propagating the requirement to call sites; nil when the
	// base is a more complex expression.
	baseVar *types.Var
	mutex   string
}

type gbChecker struct {
	pass    *Pass
	graph   *flow.Graph
	guarded map[*types.Var]guardedField
	// heldAt snapshots the held set at each static call site and at each
	// function-literal creation, for requirement propagation.
	heldAt map[ast.Node]map[string]bool
	// litInit is the held set a literal's body starts with.
	litInit  map[*ast.FuncLit]map[string]bool
	accesses map[*flow.Node][]gbAccess
}

func runGuardedBy(pass *Pass) error {
	c := &gbChecker{
		pass:     pass,
		guarded:  map[*types.Var]guardedField{},
		heldAt:   map[ast.Node]map[string]bool{},
		litInit:  map[*ast.FuncLit]map[string]bool{},
		accesses: map[*flow.Node][]gbAccess{},
	}
	c.collectAnnotations()
	if len(c.guarded) == 0 {
		return nil
	}
	c.graph = flow.Build(pass.Fset, pass.Files, pass.TypesInfo)
	for _, n := range c.graph.Nodes() {
		body := n.Body()
		if body == nil {
			continue
		}
		state := map[string]bool{}
		if n.Lit != nil {
			state = cloneHeld(c.litInit[n.Lit])
		}
		c.walkStmts(n, body.List, state)
	}
	// Resolve the collected requirements bottom-up through the graph.
	for _, n := range c.graph.Nodes() {
		reported := map[string]bool{}
		for _, acc := range c.accesses[n] {
			if c.satisfied(n, acc.baseVar, acc.mutex, map[*flow.Node]bool{}) {
				continue
			}
			// One diagnostic per line and mutex: `q.items = append(q.items, x)`
			// is one violation, not two.
			pos := c.pass.Fset.Position(acc.pos)
			dk := fmt.Sprintf("%s:%d:%s", pos.Filename, pos.Line, acc.key)
			if reported[dk] {
				continue
			}
			reported[dk] = true
			c.pass.Reportf(acc.pos, "access to %s without holding %s (field marked //simlint:guarded_by(%s))",
				acc.expr, acc.key, acc.mutex)
		}
	}
	return nil
}

// collectAnnotations gathers the package's guarded fields, validating
// that each names a sibling mutex.
func (c *gbChecker) collectAnnotations() {
	for _, file := range c.pass.Files {
		ast.Inspect(file, func(node ast.Node) bool {
			st, ok := node.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				doc := field.Doc
				if doc == nil {
					doc = field.Comment
				}
				arg, found := markerArg(doc, MarkerGuardedBy)
				if !found {
					continue
				}
				if arg == "" {
					c.pass.Reportf(field.Pos(), "//simlint:guarded_by requires the sibling mutex field name, e.g. //simlint:guarded_by(mu)")
					continue
				}
				mu, ok := siblingField(st, arg)
				if !ok {
					c.pass.Reportf(field.Pos(), "//simlint:guarded_by(%s): no sibling field named %s", arg, arg)
					continue
				}
				if !isMutexType(c.pass.TypeOf(mu.Type)) {
					c.pass.Reportf(field.Pos(), "//simlint:guarded_by(%s): %s is not a sync.Mutex or sync.RWMutex", arg, arg)
					continue
				}
				for _, name := range field.Names {
					if v, ok := c.pass.TypesInfo.Defs[name].(*types.Var); ok {
						c.guarded[v] = guardedField{mutex: arg}
					}
				}
			}
			return true
		})
	}
}

// siblingField finds the struct field named name.
func siblingField(st *ast.StructType, name string) (*ast.Field, bool) {
	for _, f := range st.Fields.List {
		for _, n := range f.Names {
			if n.Name == name {
				return f, true
			}
		}
	}
	return nil, false
}

// isMutexType reports whether t is sync.Mutex, sync.RWMutex or a
// pointer to one.
func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// walkStmts runs the held-set interpreter over a statement list,
// mutating state in place. The return value reports whether control
// cannot fall out of the list (return, panic, branch).
func (c *gbChecker) walkStmts(n *flow.Node, stmts []ast.Stmt, state map[string]bool) bool {
	for _, stmt := range stmts {
		if c.walkStmt(n, stmt, state) {
			return true
		}
	}
	return false
}

func (c *gbChecker) walkStmt(n *flow.Node, stmt ast.Stmt, state map[string]bool) bool {
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		return c.walkStmts(n, s.List, state)
	case *ast.LabeledStmt:
		return c.walkStmt(n, s.Stmt, state)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.scanExpr(n, e, state)
		}
		return true
	case *ast.BranchStmt:
		// break/continue/goto divert control; excluding their state from
		// the enclosing merge under-approximates the held set, which can
		// only cause a false report, never hide one.
		return true
	case *ast.ExprStmt:
		if isPanicCall(s.X) {
			c.scanExpr(n, s.X, state)
			return true
		}
		c.scanExpr(n, s.X, state)
		return false
	case *ast.DeferStmt:
		// A deferred unlock releases at return — the mutex stays held for
		// the rest of the body, which is exactly "no state change now".
		if _, op := c.mutexOpInfo(s.Call); op != "" {
			return false
		}
		c.scanDeferredCall(n, s.Call, state)
		return false
	case *ast.GoStmt:
		c.scanDeferredCall(n, s.Call, state)
		return false
	case *ast.IfStmt:
		if s.Init != nil {
			c.walkStmt(n, s.Init, state)
		}
		c.scanExpr(n, s.Cond, state)
		thenState := cloneHeld(state)
		thenTerm := c.walkStmts(n, s.Body.List, thenState)
		elseState := cloneHeld(state)
		elseTerm := false
		if s.Else != nil {
			elseTerm = c.walkStmt(n, s.Else, elseState)
		}
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			replaceHeld(state, elseState)
		case elseTerm:
			replaceHeld(state, thenState)
		default:
			intersectHeld(thenState, elseState)
			replaceHeld(state, thenState)
		}
		return false
	case *ast.ForStmt:
		if s.Init != nil {
			c.walkStmt(n, s.Init, state)
		}
		if s.Cond != nil {
			c.scanExpr(n, s.Cond, state)
		}
		bodyState := cloneHeld(state)
		term := c.walkStmts(n, s.Body.List, bodyState)
		if s.Post != nil {
			c.walkStmt(n, s.Post, bodyState)
		}
		if !term {
			intersectHeld(state, bodyState) // the body may run zero times
		}
		return false
	case *ast.RangeStmt:
		c.scanExpr(n, s.X, state)
		bodyState := cloneHeld(state)
		if !c.walkStmts(n, s.Body.List, bodyState) {
			intersectHeld(state, bodyState)
		}
		return false
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.walkStmt(n, s.Init, state)
		}
		if s.Tag != nil {
			c.scanExpr(n, s.Tag, state)
		}
		return c.walkCases(n, s.Body.List, state, false)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			c.walkStmt(n, s.Init, state)
		}
		c.walkStmt(n, s.Assign, state)
		return c.walkCases(n, s.Body.List, state, false)
	case *ast.SelectStmt:
		// A default-free select blocks until some clause runs, so the
		// merge never includes the entry state.
		return c.walkCases(n, s.Body.List, state, true)
	default:
		// Assignments, declarations, sends, ++/--: no control flow, just
		// expressions to scan (walkStmt on nested Init stmts lands here
		// too).
		ast.Inspect(stmt, func(node ast.Node) bool {
			if e, ok := node.(ast.Expr); ok {
				c.scanExpr(n, e, state)
				return false
			}
			return true
		})
		return false
	}
}

// walkCases merges switch/select clause bodies by intersection. For a
// switch without a default clause the entry state joins the merge (no
// clause may match); a select (selectAlways) always runs one clause.
func (c *gbChecker) walkCases(n *flow.Node, clauses []ast.Stmt, state map[string]bool, selectAlways bool) bool {
	var out []map[string]bool
	hasDefault := false
	for _, cl := range clauses {
		cs := cloneHeld(state)
		var body []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			for _, e := range cl.List {
				c.scanExpr(n, e, cs)
			}
			body = cl.Body
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			} else {
				c.walkStmt(n, cl.Comm, cs)
			}
			body = cl.Body
		}
		if !c.walkStmts(n, body, cs) {
			out = append(out, cs)
		}
	}
	if !hasDefault && !selectAlways {
		out = append(out, cloneHeld(state))
	}
	if len(out) == 0 {
		return len(clauses) > 0 // every clause terminated
	}
	merged := out[0]
	for _, s := range out[1:] {
		intersectHeld(merged, s)
	}
	replaceHeld(state, merged)
	return false
}

// scanExpr records guarded-field accesses, applies mutex operations and
// snapshots call sites, without descending into function literals
// (their bodies are separate graph nodes).
func (c *gbChecker) scanExpr(n *flow.Node, e ast.Expr, state map[string]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			// The literal's body starts with the held set at its creation
			// point ("creating is running", flow's containment rule).
			c.litInit[node] = cloneHeld(state)
			c.heldAt[node] = cloneHeld(state)
			return false
		case *ast.CallExpr:
			if key, op := c.mutexOpInfo(node); op != "" {
				switch op {
				case "Lock", "RLock":
					state[key] = true
				case "Unlock", "RUnlock":
					delete(state, key)
				}
				return false // the receiver chain is not an access
			}
			c.heldAt[node] = cloneHeld(state)
			return true
		case *ast.SelectorExpr:
			c.checkAccess(n, node, state)
			return true
		}
		return true
	})
}

// scanDeferredCall handles go/defer calls: any literal involved starts
// with an empty held set (it runs on another goroutine or after an
// unknown amount of unwinding), and the call site itself snapshots an
// empty set for propagation.
func (c *gbChecker) scanDeferredCall(n *flow.Node, call *ast.CallExpr, state map[string]bool) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		c.litInit[lit] = map[string]bool{}
		c.heldAt[lit] = map[string]bool{}
	} else {
		c.scanExpr(n, call.Fun, state)
	}
	c.heldAt[call] = map[string]bool{}
	for _, a := range call.Args {
		c.scanExpr(n, a, state)
	}
}

// mutexOpInfo classifies a call as a mutex acquire/release, returning
// the canonical receiver key and the operation name ("" when the call
// is not one). It never mutates state — defer handling needs the
// classification without the effect.
func (c *gbChecker) mutexOpInfo(call *ast.CallExpr) (string, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || !isMutexType(recv.Type()) {
		return "", ""
	}
	key := canonicalExpr(sel.X)
	if key == "" {
		return "", ""
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return key, fn.Name()
	}
	return "", ""
}

// checkAccess tests one selector against the guarded-field set.
func (c *gbChecker) checkAccess(n *flow.Node, sel *ast.SelectorExpr, state map[string]bool) {
	v, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if !ok {
		return
	}
	gf, ok := c.guarded[v]
	if !ok {
		return
	}
	base := canonicalExpr(sel.X)
	if base == "" {
		// Unrenderable base (index expression, call result): require the
		// lock to be provably held via some canonical alias is impossible,
		// so record an unpropagatable access.
		c.accesses[n] = append(c.accesses[n], gbAccess{
			pos: sel.Pos(), expr: "." + sel.Sel.Name, key: "its " + gf.mutex, mutex: gf.mutex,
		})
		return
	}
	key := base + "." + gf.mutex
	if state[key] {
		return
	}
	acc := gbAccess{pos: sel.Pos(), expr: base + "." + sel.Sel.Name, key: key, mutex: gf.mutex}
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		if bv, ok := c.pass.TypesInfo.Uses[id].(*types.Var); ok {
			acc.baseVar = bv
		}
	}
	c.accesses[n] = append(c.accesses[n], acc)
}

// satisfied reports whether every path to n holds baseVar's mutex — the
// interprocedural half: an unexported helper is clean when all its call
// sites hold the mapped mutex or propagate the requirement further up.
func (c *gbChecker) satisfied(n *flow.Node, baseVar *types.Var, mutex string, visiting map[*flow.Node]bool) bool {
	if baseVar == nil || visiting[n] {
		return false
	}
	visiting[n] = true
	defer delete(visiting, n)

	if n.Lit != nil {
		// The literal inherited its creation-point state; the base being a
		// closed-over variable, callers cannot be mapped further.
		return false
	}
	if n.Exported() {
		return false // external callers are invisible; the lock must be local
	}
	recvIndex, paramIndex := signatureIndex(n.Func, baseVar)
	if recvIndex < 0 && paramIndex < 0 {
		return false // base is a local or package variable: not mappable
	}
	callers := c.graph.CallersOf(n)
	if len(callers) == 0 {
		return false
	}
	for _, edge := range callers {
		call, ok := edge.Site.(*ast.CallExpr)
		if !ok {
			return false
		}
		var argExpr ast.Expr
		if recvIndex == 0 {
			selFun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return false // method value / expression call: unmappable
			}
			argExpr = selFun.X
		} else {
			if paramIndex >= len(call.Args) {
				return false
			}
			argExpr = call.Args[paramIndex]
		}
		base := canonicalExpr(argExpr)
		if base == "" {
			return false
		}
		if c.heldAt[call][base+"."+mutex] {
			continue
		}
		id, ok := ast.Unparen(argExpr).(*ast.Ident)
		if !ok {
			return false
		}
		bv, ok := c.pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || !c.satisfied(edge.Caller, bv, mutex, visiting) {
			return false
		}
	}
	return true
}

// signatureIndex locates v in fn's signature: (0, -1) for the receiver,
// (-1, i) for parameter i, (-1, -1) when absent.
func signatureIndex(fn *types.Func, v *types.Var) (recvIndex, paramIndex int) {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == v {
		return 0, -1
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if params.At(i) == v {
			return -1, i
		}
	}
	return -1, -1
}

// isPanicCall reports whether e is a call of the panic builtin.
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// canonicalExpr renders a selector chain of plain identifiers ("q",
// "s.queue", "(*p).mu" as "p.mu"); "" for anything with an index, call
// or other non-path component. Two textually equal keys are assumed to
// alias — sound enough for lock discipline, where the guarded struct
// and its mutex travel together.
func canonicalExpr(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := canonicalExpr(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.StarExpr:
		return canonicalExpr(e.X)
	}
	return ""
}

// cloneHeld copies a held set.
func cloneHeld(s map[string]bool) map[string]bool {
	out := make(map[string]bool, len(s))
	for k, v := range s {
		if v {
			out[k] = v
		}
	}
	return out
}

// intersectHeld drops from a every key not held in b.
func intersectHeld(a, b map[string]bool) {
	for k := range a {
		if !b[k] {
			delete(a, k)
		}
	}
}

// replaceHeld overwrites a's contents with b's.
func replaceHeld(a, b map[string]bool) {
	for k := range a {
		delete(a, k)
	}
	for k, v := range b {
		a[k] = v
	}
}
