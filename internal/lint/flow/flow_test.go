package flow_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"repro/internal/lint/flow"
)

// check parses and type-checks one synthetic file and builds its graph.
func check(t *testing.T, src string) (*flow.Graph, *types.Info, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "g.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("g", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	return flow.Build(fset, []*ast.File{f}, info), info, fset
}

func node(t *testing.T, g *flow.Graph, name string) *flow.Node {
	t.Helper()
	for _, n := range g.Nodes() {
		if n.Name() == name {
			return n
		}
	}
	t.Fatalf("no node named %q", name)
	return nil
}

const src = `package g

type T struct{ n int }

func New() *T { t := &T{}; t.init(); return t }

func (t *T) init() { t.n = 1 }

func (t *T) Get() int { return t.lookup() }

func (t *T) lookup() int { return t.n }

func Spawn() {
	go func() {
		helper()
	}()
}

func helper() {}

func Dead() {}
`

func TestGraphEdges(t *testing.T) {
	g, _, _ := check(t, src)

	for caller, callee := range map[string]string{
		"New":      "(*T).init",
		"(*T).Get": "(*T).lookup",
	} {
		from := node(t, g, caller)
		found := false
		for _, e := range from.Calls {
			if e.Callee.Name() == callee {
				found = true
			}
		}
		if !found {
			t.Errorf("missing edge %s → %s", caller, callee)
		}
	}

	// The goroutine literal hangs off Spawn via a containment edge, and
	// its own call to helper is attributed to the literal, not to Spawn.
	spawn := node(t, g, "Spawn")
	var lit *flow.Node
	for _, e := range spawn.Calls {
		if e.Callee.Lit != nil {
			lit = e.Callee
		}
		if e.Callee.Name() == "helper" {
			t.Error("helper call wrongly attributed to Spawn instead of its literal")
		}
	}
	if lit == nil {
		t.Fatal("no containment edge Spawn → literal")
	}
	if len(lit.Calls) != 1 || lit.Calls[0].Callee.Name() != "helper" {
		t.Errorf("literal calls = %v, want [helper]", lit.Calls)
	}
	if got := lit.Name(); got != "func literal in Spawn" {
		t.Errorf("literal name = %q", got)
	}
}

func TestReachAndPath(t *testing.T) {
	g, _, _ := check(t, src)
	get := node(t, g, "(*T).Get")
	lookup := node(t, g, "(*T).lookup")
	initN := node(t, g, "(*T).init")

	reached := g.Reach([]*flow.Node{get}, nil)
	if _, ok := reached[lookup]; !ok {
		t.Error("lookup not reached from Get")
	}
	if _, ok := reached[initN]; ok {
		t.Error("init wrongly reached from Get")
	}
	if p := flow.Path(reached, lookup); p != "(*T).Get → (*T).lookup" {
		t.Errorf("path = %q", p)
	}
	if p := flow.Path(reached, initN); p != "" {
		t.Errorf("path to unreached node = %q, want empty", p)
	}
}

func TestReachThroughFilter(t *testing.T) {
	g, _, _ := check(t, src)
	newN := node(t, g, "New")
	initN := node(t, g, "(*T).init")

	// Stopping traversal at New (a "builder") records New but not its
	// callees — the immutableplan construction-boundary rule.
	reached := g.Reach([]*flow.Node{newN}, func(n *flow.Node) bool { return n != newN })
	if _, ok := reached[initN]; ok {
		t.Error("traversal passed through a node the filter rejected")
	}
}

func TestCallersAndExported(t *testing.T) {
	g, _, _ := check(t, src)
	lookup := node(t, g, "(*T).lookup")
	callers := g.CallersOf(lookup)
	if len(callers) != 1 || callers[0].Caller.Name() != "(*T).Get" {
		t.Fatalf("CallersOf(lookup) = %v", callers)
	}
	if !node(t, g, "New").Exported() || node(t, g, "helper").Exported() {
		t.Error("Exported misclassified New or helper")
	}
	if len(g.CallersOf(node(t, g, "Dead"))) != 0 {
		t.Error("Dead has callers")
	}
	if !strings.Contains(node(t, g, "(*T).init").Name(), "init") {
		t.Error("method name rendering broken")
	}
}
