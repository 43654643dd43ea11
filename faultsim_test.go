package faultsim_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	faultsim "repro"
)

// TestPublicAPIEndToEnd drives the complete documented flow through the
// facade: parse, build universes, simulate with every engine, generate
// tests, and check the engines agree.
func TestPublicAPIEndToEnd(t *testing.T) {
	c, err := faultsim.Benchmark("s27")
	if err != nil {
		t.Fatal(err)
	}
	u := faultsim.StuckFaults(c)
	if u.NumFaults() == 0 {
		t.Fatal("empty universe")
	}
	vs := faultsim.RandomVectors(c, 100, 7)

	sim, err := faultsim.New(u, faultsim.CsimMV())
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run(vs)

	pr, err := faultsim.NewProofs(u)
	if err != nil {
		t.Fatal(err)
	}
	prRes := pr.Run(vs)
	if d := res.Diff(prRes); d != "" {
		t.Errorf("csim vs PROOFS:\n%s", d)
	}
	oracle := faultsim.SimulateSerial(u, vs)
	if d := res.Diff(oracle); d != "" {
		t.Errorf("csim vs serial:\n%s", d)
	}

	// The grid on a pinned budget (Config.Plan is accepted and ignored)
	// and on the default budget of one.
	for _, procs := range []int{2, 0} {
		grid := faultsim.CsimGrid(procs, 1)
		grid.Config.Plan = nil
		gres, gstats, err := faultsim.SimulateGrid(u, vs, grid)
		if err != nil {
			t.Fatal(err)
		}
		if d := gres.Diff(oracle); d != "" {
			t.Errorf("csim-grid on %d procs vs serial:\n%s", procs, d)
		}
		if gstats.Detections != gres.NumDet {
			t.Errorf("csim-grid stats report %d detections, result has %d", gstats.Detections, gres.NumDet)
		}
	}
	if _, _, err := faultsim.SimulateGrid(u, vs, faultsim.CsimGrid(2, 2)); err == nil {
		t.Error("csim-grid accepted two vector windows")
	}
	if plan := faultsim.PlanGrid(faultsim.JobShape{
		Gates: len(c.Gates), Faults: u.NumFaults(), Vectors: vs.Len(), MaxProcs: 4,
	}); plan.FaultShards < 1 || plan.FaultShards > 4 {
		t.Errorf("plan %v outside its budget", plan)
	}

	tu := faultsim.TransitionFaults(c)
	tsim, err := faultsim.New(tu, faultsim.CsimV())
	if err != nil {
		t.Fatal(err)
	}
	tres := tsim.Run(vs)
	if d := tres.Diff(faultsim.SimulateSerial(tu, vs)); d != "" {
		t.Errorf("transition csim vs serial:\n%s", d)
	}

	gen := faultsim.GenerateTests(u, faultsim.ATPGOptions{Seed: 3, RandomPreamble: 16})
	if gen.Vectors.Len() == 0 {
		t.Error("ATPG produced no vectors")
	}
}

func TestPublicAPIBenchIO(t *testing.T) {
	c, err := faultsim.ParseBench("tiny", "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := faultsim.WriteBench(&sb, c); err != nil {
		t.Fatal(err)
	}
	c2, err := faultsim.ParseBench("tiny2", sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if c2.Stats().Gates != c.Stats().Gates {
		t.Error("bench round trip changed the circuit")
	}
}

func TestPublicAPIGenerate(t *testing.T) {
	c, err := faultsim.GenerateCircuit(faultsim.CircuitSpec{
		Name: "g", PIs: 4, POs: 4, DFFs: 4, Gates: 60, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Gates; got != 60 {
		t.Errorf("generated %d gates, want 60", got)
	}
}

func TestGoodSimFacade(t *testing.T) {
	c, err := faultsim.ParseBench("b", "INPUT(a)\nOUTPUT(z)\nq = DFF(a)\nz = BUFF(q)\n")
	if err != nil {
		t.Fatal(err)
	}
	gs := faultsim.NewGoodSim(c)
	vs, err := faultsim.ParseVectors("1\n0\n", 1)
	if err != nil {
		t.Fatal(err)
	}
	gs.Cycle(vs.Vecs[0])
	out := gs.Cycle(vs.Vecs[1])
	if out[0] != vs.Vecs[0][0] { // a, one cycle late through the flip-flop
		t.Errorf("z = %v, want a's first value %v", out[0], vs.Vecs[0][0])
	}
}

// TestFacadeExportsHaveCallers holds faultsim.go to what its callers
// use: every exported func, type, const and var must be referenced as
// faultsim.<Name> by a .go file under examples/ or benchmark/. A type
// also counts as used when the signature of a used func, or an exported
// field of a used struct type, names it.
func TestFacadeExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "faultsim.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// decls maps each exported top-level name to the types whose
	// identifiers make further names used: a func's parameters and
	// results, a struct's exported fields.
	decls := map[string]*ast.FieldList{}
	for _, d := range facade.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				decls[d.Name.Name] = fieldTypes(false, d.Type.Params, d.Type.Results)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					if spec.Name.IsExported() {
						if st, ok := spec.Type.(*ast.StructType); ok {
							decls[spec.Name.Name] = fieldTypes(true, st.Fields)
						} else {
							decls[spec.Name.Name] = nil // an alias names no facade type
						}
					}
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						if n.IsExported() {
							decls[n.Name] = nil
						}
					}
				}
			}
		}
	}

	used := map[string]bool{}
	var work []string
	use := func(name string) {
		if _, ok := decls[name]; ok && !used[name] {
			used[name] = true
			work = append(work, name)
		}
	}
	for _, dir := range []string{"examples", "benchmark"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || filepath.Ext(path) != ".go" {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "faultsim" {
						use(sel.Sel.Name)
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for len(work) > 0 {
		name := work[len(work)-1]
		work = work[:len(work)-1]
		if n := decls[name]; n != nil {
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					use(id.Name)
				}
				return true
			})
		}
	}

	var unused []string
	for name := range decls {
		if !used[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("faultsim.%s has no caller under examples/ or benchmark/", name)
	}
}

// fieldTypes gathers the types of the fields in lists (nil ones
// allowed), without their names; exportedOnly drops the named fields a
// caller outside the package cannot reach.
func fieldTypes(exportedOnly bool, lists ...*ast.FieldList) *ast.FieldList {
	out := &ast.FieldList{}
	for _, l := range lists {
		if l == nil {
			continue
		}
		for _, f := range l.List {
			if !exportedOnly || len(f.Names) == 0 || slices.ContainsFunc(f.Names, (*ast.Ident).IsExported) {
				out.List = append(out.List, &ast.Field{Type: f.Type})
			}
		}
	}
	return out
}
