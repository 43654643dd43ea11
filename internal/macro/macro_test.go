package macro

import (
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/iscas/iscastest"
	"repro/internal/logic"
	"repro/internal/netlist"
)

const s27Bench = `
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NAND(G2, G12)
`

func mustParse(t *testing.T, name, text string) *netlist.Circuit {
	t.Helper()
	c, err := netlist.ParseBenchString(name, text)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fig3Bench mirrors the paper's Figure 3: a fanout-free three-gate cone.
const fig3Bench = `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(z)
g1 = AND(a, b)
g2 = OR(c, d)
z = NAND(g1, g2)
`

func TestFigure3CollapsesToOneMacro(t *testing.T) {
	c := mustParse(t, "fig3", fig3Bench)
	p, err := Extract(c, DefaultMaxInputs)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.NumMacros(); got != 1 {
		t.Fatalf("figure-3 circuit extracted %d macros, want 1", got)
	}
	m := p.ByRoot[iscastest.MustByName(c, "z")]
	if m == nil {
		t.Fatal("macro not rooted at z")
	}
	if len(m.Prog) != 3 {
		t.Errorf("macro has %d instructions, want 3", len(m.Prog))
	}
	if m.NumLeaves() != 4 {
		t.Errorf("macro has %d leaves, want 4", m.NumLeaves())
	}
	if m.Table == nil {
		t.Error("4-leaf macro should have a lookup table")
	}
}

func planInvariants(t *testing.T, c *netlist.Circuit, p *Plan) {
	t.Helper()
	seen := make(map[netlist.GateID]netlist.GateID)
	for id, m := range p.ByRoot {
		if m == nil {
			continue
		}
		if m.Root != netlist.GateID(id) {
			t.Fatalf("macro indexed at %d has root %d", id, m.Root)
		}
		for g := range m.gateInstr {
			if prev, dup := seen[g]; dup {
				t.Fatalf("gate %d in macros %d and %d", g, prev, id)
			}
			seen[g] = netlist.GateID(id)
			if p.Owner[g] != netlist.GateID(id) {
				t.Fatalf("Owner[%d] = %d, want %d", g, p.Owner[g], id)
			}
		}
		for _, l := range m.Leaves {
			lg := c.Gate(l)
			if !lg.IsSource() && p.ByRoot[l] == nil {
				t.Fatalf("leaf %s of macro %d is neither source nor root", lg.Name, id)
			}
		}
	}
	for i := range c.Gates {
		if c.Gates[i].IsSource() {
			continue
		}
		if _, ok := seen[netlist.GateID(i)]; !ok {
			t.Fatalf("gate %s not in any macro", c.Gates[i].Name)
		}
	}
	// Level sanity: every root above all its leaf roots.
	for id, m := range p.ByRoot {
		if m == nil {
			continue
		}
		for _, l := range m.Leaves {
			if p.RootLevel[l] >= p.RootLevel[id] {
				t.Fatalf("root %d (level %d) not above leaf %d (level %d)",
					id, p.RootLevel[id], l, p.RootLevel[l])
			}
		}
	}
}

func TestExtractInvariantsS27(t *testing.T) {
	c := mustParse(t, "s27", s27Bench)
	p, err := Extract(c, DefaultMaxInputs)
	if err != nil {
		t.Fatal(err)
	}
	planInvariants(t, c, p)
	if p.NumMacros() >= c.Stats().Gates {
		t.Errorf("extraction produced %d macros for %d gates; nothing collapsed",
			p.NumMacros(), c.Stats().Gates)
	}
}

func TestTrivialInvariants(t *testing.T) {
	c := mustParse(t, "s27", s27Bench)
	p := Trivial(c)
	planInvariants(t, c, p)
	if p.NumMacros() != c.Stats().Gates {
		t.Errorf("trivial plan has %d macros, want %d", p.NumMacros(), c.Stats().Gates)
	}
}

// evalPlan evaluates the full combinational network through a plan, given
// values for all source gates; returns values of every root.
func evalPlan(p *Plan, src map[netlist.GateID]logic.V) map[netlist.GateID]logic.V {
	val := make(map[netlist.GateID]logic.V, len(p.C.Gates))
	for g, v := range src {
		val[g] = v
	}
	frame := make([]logic.V, p.MaxFrame)
	for _, lv := range p.Levels {
		for _, r := range lv {
			m := p.ByRoot[r]
			in := make([]logic.V, len(m.Leaves))
			for i, l := range m.Leaves {
				in[i] = val[l]
			}
			val[r] = m.Eval(in, frame)
		}
	}
	return val
}

// flatEval evaluates gate-by-gate as the reference.
func flatEval(c *netlist.Circuit, src map[netlist.GateID]logic.V) map[netlist.GateID]logic.V {
	val := make(map[netlist.GateID]logic.V, len(c.Gates))
	for g, v := range src {
		val[g] = v
	}
	for _, lv := range c.Levels {
		for _, id := range lv {
			fanin := c.Fanin(id)
			in := make([]logic.V, len(fanin))
			for j, f := range fanin {
				in[j] = val[f]
			}
			val[id] = logic.Eval(c.Gate(id).Op, in)
		}
	}
	return val
}

func randomSources(c *netlist.Circuit, rng *rand.Rand) map[netlist.GateID]logic.V {
	src := make(map[netlist.GateID]logic.V)
	for _, pi := range c.PIs {
		src[pi] = logic.V(rng.Intn(3))
	}
	for _, ff := range c.DFFs {
		src[ff] = logic.V(rng.Intn(3))
	}
	return src
}

func TestPlanEvalMatchesFlat(t *testing.T) {
	c := mustParse(t, "s27", s27Bench)
	for _, mk := range []struct {
		name string
		plan func() *Plan
	}{
		{"trivial", func() *Plan { return Trivial(c) }},
		{"extracted", func() *Plan {
			p, err := Extract(c, DefaultMaxInputs)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}},
	} {
		p := mk.plan()
		rng := rand.New(rand.NewSource(99))
		for trial := 0; trial < 300; trial++ {
			src := randomSources(c, rng)
			want := flatEval(c, src)
			got := evalPlan(p, src)
			for id, m := range p.ByRoot {
				if m == nil {
					continue
				}
				if got[netlist.GateID(id)] != want[netlist.GateID(id)] {
					t.Fatalf("%s: root %s: plan %v, flat %v",
						mk.name, c.Gate(netlist.GateID(id)).Name,
						got[netlist.GateID(id)], want[netlist.GateID(id)])
				}
			}
		}
	}
}

// TestEvalStuckMatchesFlatInjection cross-checks macro functional-fault
// evaluation against direct pin forcing on the flat circuit: every
// internal stuck fault of every macro of fig3's, s298's and s1494's
// fanout-free plans, table-sized macros and wider ones alike.
func TestEvalStuckMatchesFlatInjection(t *testing.T) {
	for _, tc := range []struct {
		c      *netlist.Circuit
		trials int
	}{
		{mustParse(t, "fig3", fig3Bench), 200},
		{iscastest.MustGet("s298"), 20},
		{iscastest.MustGet("s1494"), 8},
	} {
		c := tc.c
		p, err := Extract(c, DefaultMaxInputs)
		if err != nil {
			t.Fatal(err)
		}
		byMacro := make(map[*Macro][]faults.Fault)
		for _, f := range faults.StuckAll(c).Faults {
			for _, m := range p.ByRoot {
				if m != nil && m.Contains(f.Gate) {
					byMacro[m] = append(byMacro[m], f)
				}
			}
		}
		wide := 0
		for m := range byMacro {
			if m.NumLeaves() > TableMaxInputs {
				wide++
			}
		}
		if c.Name != "fig3" && wide == 0 {
			t.Errorf("%s: no macro with more than %d leaves was checked", c.Name, TableMaxInputs)
		}
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < tc.trials; trial++ {
			src := randomSources(c, rng)
			good := flatEval(c, src)
			for m, fs := range byMacro {
				frame := make([]logic.V, m.FrameSize())
				in := make([]logic.V, len(m.Leaves))
				for i, l := range m.Leaves {
					in[i] = good[l]
				}
				for _, f := range fs {
					got := m.EvalStuck(in, frame, f.Gate, int(f.Pin), f.Kind.StuckValue())
					want := flatEvalStuck(c, src, f, m.Root)
					if got != want {
						t.Fatalf("%s: fault %s: macro %v, flat %v (inputs %v)", c.Name, f.Name(c), got, want, in)
					}
				}
			}
		}
	}
}

// flatEvalStuck evaluates the flat circuit with the stuck-at fault f
// forced at its pin and returns the value of gate out.
func flatEvalStuck(c *netlist.Circuit, src map[netlist.GateID]logic.V, f faults.Fault, out netlist.GateID) logic.V {
	val := make([]logic.V, len(c.Gates))
	for g, v := range src {
		val[g] = v
	}
	var in []logic.V
	for _, lv := range c.Levels {
		for _, id := range lv {
			in = in[:0]
			for j, fi := range c.Fanin(id) {
				v := val[fi]
				if f.Gate == id && int(f.Pin) == j {
					v = f.Kind.StuckValue()
				}
				in = append(in, v)
			}
			v := logic.Eval(c.Gate(id).Op, in)
			if f.Gate == id && f.Pin == faults.OutPin {
				v = f.Kind.StuckValue()
			}
			val[id] = v
		}
	}
	return val[out]
}

func TestEvalTransitionDriver(t *testing.T) {
	c := mustParse(t, "fig3", fig3Bench)
	p, err := Extract(c, DefaultMaxInputs)
	if err != nil {
		t.Fatal(err)
	}
	m := p.ByRoot[iscastest.MustByName(c, "z")]
	// STR on z's pin 0 (driven by g1 = AND(a,b)).
	z := iscastest.MustByName(c, "z")
	in := []logic.V{logic.One, logic.One, logic.Zero, logic.Zero} // a,b,c,d order unknown; map by leaves
	vals := map[string]logic.V{"a": 1, "b": 1, "c": 0, "d": 0}
	for i, l := range m.Leaves {
		in[i] = vals[c.Gate(l).Name]
	}
	frame := make([]logic.V, m.FrameSize())
	out, driver := m.EvalTransition(in, frame, z, 0, faults.STR, logic.Zero)
	// g1 = AND(1,1) = 1; prev 0, so STR holds site at 0; g2 = OR(0,0) = 0;
	// z = NAND(0,0) = 1. Good z = NAND(1,0) = 1 too (not detected here),
	// but the driver must be reported as 1.
	if driver != logic.One {
		t.Errorf("driver = %v, want 1", driver)
	}
	if out != logic.One {
		t.Errorf("out = %v, want 1", out)
	}
	// Same with prev=1: no delayed edge, fault invisible.
	out2, _ := m.EvalTransition(in, frame, z, 0, faults.STR, logic.One)
	goodOut := m.Eval(in, frame)
	if out2 != goodOut {
		t.Errorf("stable site: faulty %v != good %v", out2, goodOut)
	}
}

func TestTableMatchesReplay(t *testing.T) {
	c := mustParse(t, "fig3", fig3Bench)
	p, err := Extract(c, DefaultMaxInputs)
	if err != nil {
		t.Fatal(err)
	}
	m := p.ByRoot[iscastest.MustByName(c, "z")]
	if m.Table == nil {
		t.Fatal("no table")
	}
	saved := m.Table
	m.Table = nil
	frame := make([]logic.V, m.FrameSize())
	in := make([]logic.V, m.NumLeaves())
	var walk func(i int)
	walk = func(i int) {
		if i == len(in) {
			replayOut := m.Eval(in, frame)
			m.Table = saved
			tableOut := m.Eval(in, frame)
			m.Table = nil
			if replayOut != tableOut {
				t.Fatalf("table %v != replay %v at %v", tableOut, replayOut, in)
			}
			return
		}
		for _, v := range []logic.V{logic.Zero, logic.One, logic.X} {
			in[i] = v
			walk(i + 1)
		}
	}
	walk(0)
	m.Table = saved
}

func TestExtractWideGateNoTable(t *testing.T) {
	b := netlist.NewBuilder("wide")
	names := make([]string, 8)
	for i := range names {
		names[i] = string(rune('a' + i))
		b.Input(names[i])
	}
	b.Gate("z", logic.OpAnd, names...)
	b.Output("z")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := Extract(c, DefaultMaxInputs)
	if err != nil {
		t.Fatal(err)
	}
	m := p.ByRoot[iscastest.MustByName(c, "z")]
	if m.Table != nil {
		t.Error("8-leaf macro should not build a 4^8 table")
	}
}

func TestExtractLeafCap(t *testing.T) {
	// A deep chain of 2-input ANDs with fresh inputs; cap at 3 leaves
	// forces cuts, and every gate must still be covered.
	b := netlist.NewBuilder("chain")
	b.Input("i0")
	prev := "i0"
	for i := 1; i <= 10; i++ {
		in := string(rune('A' + i))
		b.Input(in)
		g := "g" + string(rune('0'+i%10)) + string(rune('a'+i/10))
		b.Gate(g, logic.OpAnd, prev, in)
		prev = g
	}
	b.Output(prev)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := Extract(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	planInvariants(t, c, p)
	for _, m := range p.ByRoot {
		if m != nil && m.NumLeaves() > 3 {
			t.Errorf("macro rooted at %d has %d leaves, cap 3", m.Root, m.NumLeaves())
		}
	}
}

func TestExtractRejectsBadCap(t *testing.T) {
	c := mustParse(t, "s27", s27Bench)
	if _, err := Extract(c, 1); err == nil {
		t.Error("Extract(1) succeeded, want error")
	}
}

func TestDuplicateFaninTrivial(t *testing.T) {
	c := mustParse(t, "dup", "INPUT(a)\nOUTPUT(z)\nz = AND(a, a)\n")
	p := Trivial(c)
	m := p.ByRoot[iscastest.MustByName(c, "z")]
	if m.NumLeaves() != 2 {
		t.Fatalf("trivial macro over AND(a,a) has %d leaves, want 2 (per pin)", m.NumLeaves())
	}
	frame := make([]logic.V, m.FrameSize())
	if got := m.Eval([]logic.V{logic.One, logic.One}, frame); got != logic.One {
		t.Errorf("AND(a,a) with a=1 = %v", got)
	}
}

// diamondBench has reconvergent fanout: s feeds both arms, which re-join
// at z. Fanout-free extraction must keep s as its own macro; reconvergent
// extraction collapses the whole diamond into one.
const diamondBench = `
INPUT(a)
INPUT(b)
OUTPUT(z)
s = NAND(a, b)
p1 = NOT(s)
p2 = OR(s, b)
z = AND(p1, p2)
`

func TestExtractReconvergentDiamond(t *testing.T) {
	c := mustParse(t, "diamond", diamondBench)
	ff, err := Extract(c, DefaultMaxInputs)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := ExtractReconvergent(c, DefaultMaxInputs)
	if err != nil {
		t.Fatal(err)
	}
	planInvariants(t, c, rc)
	if rc.NumMacros() >= ff.NumMacros() {
		t.Errorf("reconvergent %d macros, fanout-free %d; expected further collapse",
			rc.NumMacros(), ff.NumMacros())
	}
	m := rc.ByRoot[iscastest.MustByName(c, "z")]
	if m == nil || !m.Contains(iscastest.MustByName(c, "s")) {
		t.Fatal("diamond stem not absorbed by reconvergent extraction")
	}
	// Functional equivalence on all source assignments.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		src := randomSources(c, rng)
		want := flatEval(c, src)
		got := evalPlan(rc, src)
		for id, mm := range rc.ByRoot {
			if mm == nil {
				continue
			}
			if got[netlist.GateID(id)] != want[netlist.GateID(id)] {
				t.Fatalf("reconvergent eval mismatch at %s", c.Gate(netlist.GateID(id)).Name)
			}
		}
	}
}

func TestExtractReconvergentS27Invariants(t *testing.T) {
	c := mustParse(t, "s27", s27Bench)
	p, err := ExtractReconvergent(c, DefaultMaxInputs)
	if err != nil {
		t.Fatal(err)
	}
	planInvariants(t, c, p)
	ff, err := Extract(c, DefaultMaxInputs)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumMacros() > ff.NumMacros() {
		t.Errorf("reconvergent produced more macros (%d) than fanout-free (%d)",
			p.NumMacros(), ff.NumMacros())
	}
}

func TestReconvergentStuckInjectionMatchesFlat(t *testing.T) {
	c := mustParse(t, "diamond", diamondBench)
	p, err := ExtractReconvergent(c, DefaultMaxInputs)
	if err != nil {
		t.Fatal(err)
	}
	m := p.ByRoot[iscastest.MustByName(c, "z")]
	u := faults.StuckAll(c)
	rng := rand.New(rand.NewSource(77))
	frame := make([]logic.V, m.FrameSize())
	for trial := 0; trial < 200; trial++ {
		src := randomSources(c, rng)
		in := make([]logic.V, len(m.Leaves))
		for i, l := range m.Leaves {
			in[i] = src[l]
		}
		for _, f := range u.Faults {
			if !m.Contains(f.Gate) {
				continue
			}
			got := m.EvalStuck(in, frame, f.Gate, int(f.Pin), f.Kind.StuckValue())
			want := flatEvalStuck(c, src, f, m.Root)
			if got != want {
				t.Fatalf("fault %s: reconvergent macro %v, flat %v", f.Name(c), got, want)
			}
		}
	}
}
