package netcheck

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/iscas"
	"repro/internal/iscas/iscastest"
	"repro/internal/logic"
	"repro/internal/macro"
	"repro/internal/netlist"
)

// TestISCASSuiteClean sweeps every bundled benchmark: the circuits, the
// fault universes over them, and all extraction plans must verify clean.
func TestISCASSuiteClean(t *testing.T) {
	for _, name := range iscas.Names() {
		c := iscastest.MustGet(name)
		if err := AsError(Check(c)); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		for _, u := range []*faults.Universe{
			faults.StuckAll(c), faults.StuckCollapsed(c), faults.Transition(c),
		} {
			if err := AsError(CheckUniverse(u)); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
		trivial := macro.Trivial(c)
		if err := AsError(CheckPlan(trivial)); err != nil {
			t.Errorf("%s trivial plan: %v", name, err)
		}
		for _, reconv := range []bool{false, true} {
			var p *macro.Plan
			var err error
			if reconv {
				p, err = macro.ExtractReconvergent(c, macro.DefaultMaxInputs)
			} else {
				p, err = macro.Extract(c, macro.DefaultMaxInputs)
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := AsError(CheckPlan(p)); err != nil {
				t.Errorf("%s reconv=%v: %v", name, reconv, err)
			}
			if err := AsError(CheckPlanMaximal(p, macro.DefaultMaxInputs, reconv)); err != nil {
				t.Errorf("%s reconv=%v: %v", name, reconv, err)
			}
		}
	}
}

// chain builds the two-gate circuit i -> a(NOT) -> b(NOT) -> PO b.
func chain(t *testing.T) *netlist.Circuit {
	t.Helper()
	c, err := netlist.NewBuilder("chain").
		Input("i").
		Gate("a", logic.OpNot, "i").
		Gate("b", logic.OpNot, "a").
		Output("b").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// recut gives gate g the list ids in one direction of a circuit's
// adjacency, passed as its offsets and ID arrays, and re-cuts both arrays
// around it: every other gate keeps its list.
func recut(off *[]int32, all *[]netlist.GateID, g netlist.GateID, ids ...netlist.GateID) {
	o, a := *off, *all
	newOff := make([]int32, len(o))
	var newAll []netlist.GateID
	for h := range len(o) - 1 {
		newOff[h] = int32(len(newAll))
		if h == int(g) {
			newAll = append(newAll, ids...)
		} else {
			newAll = append(newAll, a[o[h]:o[h+1]]...)
		}
	}
	newOff[len(o)-1] = int32(len(newAll))
	*off, *all = newOff, newAll
}

func wantProblem(t *testing.T, ps []Problem, check, substr string) {
	t.Helper()
	for _, p := range ps {
		if p.Check == check && strings.Contains(p.Detail, substr) {
			return
		}
	}
	t.Errorf("no %q problem mentioning %q in %v", check, substr, ps)
}

func TestUndrivenGate(t *testing.T) {
	c := chain(t)
	recut(&c.FaninOff, &c.Fanins, iscastest.MustByName(c, "a"))
	wantProblem(t, Check(c), "undriven", "a")
}

func TestMultiplyDrivenInput(t *testing.T) {
	c := chain(t)
	i := iscastest.MustByName(c, "i")
	recut(&c.FaninOff, &c.Fanins, i, iscastest.MustByName(c, "b"))
	wantProblem(t, Check(c), "multiply-driven", "i")
}

func TestArityViolation(t *testing.T) {
	c := chain(t)
	a := iscastest.MustByName(c, "a")
	recut(&c.FaninOff, &c.Fanins, a, append(c.Fanin(a), iscastest.MustByName(c, "i"))...)
	wantProblem(t, Check(c), "arity", "a")
}

func TestEdgeMirrorBreak(t *testing.T) {
	c := chain(t)
	i := iscastest.MustByName(c, "i")
	recut(&c.FanoutOff, &c.Fanouts, i) // a still lists i as fanin
	wantProblem(t, Check(c), "edge-mirror", "i")
}

func TestIndexDrift(t *testing.T) {
	c := chain(t)
	c.PIs = nil
	wantProblem(t, Check(c), "index", "i")
}

func TestCombLoop(t *testing.T) {
	// Rewire a's fanin from i to b: a <- b <- a.
	c := chain(t)
	a, b, i := iscastest.MustByName(c, "a"), iscastest.MustByName(c, "b"), iscastest.MustByName(c, "i")
	recut(&c.FaninOff, &c.Fanins, a, b)
	recut(&c.FanoutOff, &c.Fanouts, b, append(c.Fanout(b), a)...)
	recut(&c.FanoutOff, &c.Fanouts, i)
	ps := Check(c)
	wantProblem(t, ps, "comb-loop", "a")
}

func TestLevelViolations(t *testing.T) {
	c := chain(t)
	b := iscastest.MustByName(c, "b")
	c.Gates[b].Level = 1 // same as its fanin a
	ps := Check(c)
	wantProblem(t, ps, "level", "b")

	c2 := chain(t)
	c2.MaxLevel = 9
	wantProblem(t, Check(c2), "level", "MaxLevel")
}

func TestUniverseViolations(t *testing.T) {
	c := chain(t)
	u := faults.StuckAll(c)
	u.Faults[3].ID = 99
	wantProblem(t, CheckUniverse(u), "fault-id", "index 3")

	u = faults.StuckAll(c)
	u.Faults[0].Gate = 1000
	wantProblem(t, CheckUniverse(u), "fault-site", "out-of-range")

	u = faults.StuckAll(c)
	u.Faults[2].Pin = 7
	wantProblem(t, CheckUniverse(u), "fault-site", "pin 7")

	u = faults.StuckAll(c)
	u.Faults[1].Kind = faults.STR
	u.Faults[1].Pin = faults.OutPin
	wantProblem(t, CheckUniverse(u), "fault-kind", "output")

	u = faults.StuckCollapsed(c)
	u.Rep[0] = 1 << 20
	wantProblem(t, CheckUniverse(u), "fault-rep", "Rep[0]")
}

func TestPlanViolations(t *testing.T) {
	c := chain(t)
	p, err := macro.Extract(c, macro.DefaultMaxInputs)
	if err != nil {
		t.Fatal(err)
	}
	if err := AsError(CheckPlan(p)); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	a := iscastest.MustByName(c, "a")
	p.Owner[a] = a // a was absorbed into b's macro; claim it owns itself
	wantProblem(t, CheckPlan(p), "plan-cover", "a")
}

// TestTrivialPlanNotMaximal: the Trivial plan on a chain keeps the two
// NOT gates separate, which FFR extraction would merge — the maximality
// check must say so (and must not be run on Trivial plans in anger).
func TestTrivialPlanNotMaximal(t *testing.T) {
	c := chain(t)
	p := macro.Trivial(c)
	if err := AsError(CheckPlan(p)); err != nil {
		t.Fatalf("trivial plan structurally invalid: %v", err)
	}
	wantProblem(t, CheckPlanMaximal(p, macro.DefaultMaxInputs, false), "plan-maximal", "a")
}

// TestCheckExactProblems pins the report — every problem, as text, in
// order — for corruptions the fixtures above only probe by substring:
// multiplicity mismatches between the two adjacency lists and IDs past the
// end of the gate array in Fanout, PIs and Levels.
func TestCheckExactProblems(t *testing.T) {
	// and2 is i, j -> g(AND) -> PO g.
	and2 := func(t *testing.T) *netlist.Circuit {
		c, err := netlist.NewBuilder("and2").
			Input("i").Input("j").
			Gate("g", logic.OpAnd, "i", "j").
			Output("g").
			Build()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, tc := range []struct {
		name    string
		circuit func(*testing.T) *netlist.Circuit
		corrupt func(c *netlist.Circuit)
		want    []string
	}{
		{"fanin listed twice, one fanout entry", and2, func(c *netlist.Circuit) {
			i := iscastest.MustByName(c, "i")
			recut(&c.FaninOff, &c.Fanins, iscastest.MustByName(c, "g"), i, i)
		}, []string{
			"edge-mirror: i->g: 2 fanin reference(s) but 1 fanout reference(s)",
			"edge-mirror: j->g: 1 fanout reference(s) but no fanin reference",
		}},
		{"fanout listed twice, one fanin entry", and2, func(c *netlist.Circuit) {
			i, g := iscastest.MustByName(c, "i"), iscastest.MustByName(c, "g")
			recut(&c.FanoutOff, &c.Fanouts, i, g, g)
		}, []string{
			"edge-mirror: i->g: 1 fanin reference(s) but 2 fanout reference(s)",
		}},
		{"fanout with no fanin", chain, func(c *netlist.Circuit) {
			i, a, b := iscastest.MustByName(c, "i"), iscastest.MustByName(c, "a"), iscastest.MustByName(c, "b")
			recut(&c.FanoutOff, &c.Fanouts, i, a, b)
		}, []string{
			"edge-mirror: i->b: 1 fanout reference(s) but no fanin reference",
		}},
		{"fanin with no fanout", chain, func(c *netlist.Circuit) {
			recut(&c.FanoutOff, &c.Fanouts, iscastest.MustByName(c, "a"))
		}, []string{
			"edge-mirror: a->b: 1 fanin reference(s) but 0 fanout reference(s)",
		}},
		{"fanout IDs out of range", chain, func(c *netlist.Circuit) {
			i, a := iscastest.MustByName(c, "i"), iscastest.MustByName(c, "a")
			recut(&c.FanoutOff, &c.Fanouts, i, 99, a, -1)
		}, []string{
			"bad-edge: i has out-of-range fanout -1",
			"bad-edge: i has out-of-range fanout 99",
		}},
		{"PI, DFF and PO lists past the end", chain, func(c *netlist.Circuit) {
			c.PIs = append(c.PIs, 99)
			c.DFFs = append(c.DFFs, 3)
			c.POs = append(c.POs, 7)
		}, []string{
			"index: PIs lists #99, which is not an INPUT gate",
			"index: DFFs lists #3, which is not a DFF gate",
			"index: POs lists #7, which is not flagged PO",
		}},
		{"level bucket ID past the end, once", chain, func(c *netlist.Circuit) {
			c.Levels[1] = append(c.Levels[1], 99)
		}, nil},
		{"level bucket ID past the end, twice", chain, func(c *netlist.Circuit) {
			c.Levels[2] = append(c.Levels[2], 99, 99)
		}, []string{
			"level: gate #99 appears in Levels twice",
		}},
		{"gate bucketed twice and one missing", chain, func(c *netlist.Circuit) {
			c.Levels[2] = []netlist.GateID{iscastest.MustByName(c, "a")}
		}, []string{
			"level: gate a appears in Levels twice",
			"level: gate a bucketed at level 2 but has Level 1",
			"level: gate b missing from Levels buckets",
		}},
		// A malformed adjacency is reported alone: the other checks would
		// index out of the arrays it cuts.
		{"fanin offsets falling", chain, func(c *netlist.Circuit) {
			c.FaninOff[1] = 2
		}, []string{
			"adjacency: FaninOff falls from 2 to 1 at a",
		}},
		{"fanout offsets not starting at 0", chain, func(c *netlist.Circuit) {
			c.FanoutOff[0] = 1
		}, []string{
			"adjacency: FanoutOff starts at 1, want 0",
		}},
		{"fanin offsets past the IDs", chain, func(c *netlist.Circuit) {
			c.Fanins = c.Fanins[:1]
		}, []string{
			"adjacency: FaninOff ends at 2, but Fanins holds 1",
		}},
		{"offsets arrays of the wrong length", chain, func(c *netlist.Circuit) {
			c.FaninOff = append(c.FaninOff, 2)
			c.FanoutOff = c.FanoutOff[:2]
		}, []string{
			"adjacency: FaninOff has 5 entries for 3 gates, want 4",
			"adjacency: FanoutOff has 2 entries for 3 gates, want 4",
		}},
	} {
		c := tc.circuit(t)
		tc.corrupt(c)
		var got []string
		for _, p := range Check(c) {
			got = append(got, p.String())
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, tc.want)
		}
	}
}
