package netlist

import (
	"strings"
	"testing"

	"repro/internal/logic"
)

// s27Bench is the real ISCAS-89 s27 netlist.
const s27Bench = `
# s27
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

func parseS27(t *testing.T) *Circuit {
	t.Helper()
	c, err := ParseBenchString("s27", s27Bench)
	if err != nil {
		t.Fatalf("ParseBench(s27): %v", err)
	}
	return c
}

func TestParseS27Stats(t *testing.T) {
	c := parseS27(t)
	s := c.Stats()
	if s.PIs != 4 || s.POs != 1 || s.DFFs != 3 || s.Gates != 10 {
		t.Errorf("s27 stats = %+v, want 4 PI / 1 PO / 3 DFF / 10 gates", s)
	}
	if s.Ops[logic.OpNor] != 3 || s.Ops[logic.OpNand] != 2 || s.Ops[logic.OpNot] != 2 {
		t.Errorf("op histogram wrong: %v", s.Ops)
	}
}

func TestLevelization(t *testing.T) {
	c := parseS27(t)
	for _, pi := range c.PIs {
		if c.Gate(pi).Level != 0 {
			t.Errorf("PI %s at level %d", c.Gate(pi).Name, c.Gate(pi).Level)
		}
	}
	for _, ff := range c.DFFs {
		if c.Gate(ff).Level != 0 {
			t.Errorf("DFF %s at level %d", c.Gate(ff).Name, c.Gate(ff).Level)
		}
	}
	// Every gate must be strictly above all its combinational fanins.
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.IsSource() {
			continue
		}
		for _, f := range c.Fanin(GateID(i)) {
			if c.Gates[f].Level >= g.Level {
				t.Errorf("gate %s (level %d) not above fanin %s (level %d)",
					g.Name, g.Level, c.Gates[f].Name, c.Gates[f].Level)
			}
		}
	}
	// Levels slices must partition the combinational gates.
	n := 0
	for l, lv := range c.Levels {
		for _, id := range lv {
			if int(c.Gate(id).Level) != l {
				t.Errorf("gate %s in Levels[%d] but Level=%d", c.Gate(id).Name, l, c.Gate(id).Level)
			}
			n++
		}
	}
	if n != c.Stats().Gates {
		t.Errorf("Levels hold %d gates, want %d", n, c.Stats().Gates)
	}
}

func TestFanoutConsistency(t *testing.T) {
	c := parseS27(t)
	for i := range c.Gates {
		for _, f := range c.Fanin(GateID(i)) {
			if c.PinOf(GateID(i), f) < 0 {
				t.Fatalf("PinOf broken for %s", c.Gates[i].Name)
			}
			found := false
			for _, fo := range c.Fanout(f) {
				if fo == GateID(i) {
					found = true
				}
			}
			if !found {
				t.Errorf("fanin edge %s->%s missing from fanout list",
					c.Gates[f].Name, c.Gates[i].Name)
			}
		}
	}
}

func TestBenchRoundTrip(t *testing.T) {
	c := parseS27(t)
	var text strings.Builder
	if err := WriteBench(&text, c); err != nil {
		t.Fatal(err)
	}
	c2, err := ParseBenchString("s27rt", text.String())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if len(c2.Gates) != len(c.Gates) || len(c2.PIs) != len(c.PIs) ||
		len(c2.POs) != len(c.POs) || len(c2.DFFs) != len(c.DFFs) {
		t.Fatalf("round trip changed shape: %v vs %v", c2.Stats(), c.Stats())
	}
	byName := make(map[string]GateID, len(c2.Gates))
	for i := range c2.Gates {
		byName[c2.Gates[i].Name] = GateID(i)
	}
	for i := range c.Gates {
		g := &c.Gates[i]
		id2, ok := byName[g.Name]
		if !ok {
			t.Fatalf("gate %q lost in round trip", g.Name)
		}
		g2 := c2.Gate(id2)
		in, in2 := c.Fanin(GateID(i)), c2.Fanin(id2)
		if g2.Op != g.Op || len(in2) != len(in) || g2.PO != g.PO {
			t.Errorf("gate %q changed: op %v->%v", g.Name, g.Op, g2.Op)
		}
		for j, f := range in {
			if c2.Gate(in2[j]).Name != c.Gate(f).Name {
				t.Errorf("gate %q fanin %d changed", g.Name, j)
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, text string }{
		{"undriven", "INPUT(a)\nOUTPUT(z)\nz = AND(a, b)\n"},
		{"dupDef", "INPUT(a)\nINPUT(a)\n"},
		{"badOp", "INPUT(a)\nz = MAJ(a)\n"},
		{"badDecl", "WIBBLE(a)\n"},
		{"malformed", "z = AND(a\n"},
		{"dffArity", "INPUT(a)\nINPUT(b)\nq = DFF(a, b)\n"},
		{"notArity", "INPUT(a)\nINPUT(b)\nz = NOT(a, b)\nOUTPUT(z)\n"},
		{"emptyArg", "INPUT(a)\nz = AND(a,, a)\n"},
		{"undrivenPO", "INPUT(a)\nOUTPUT(zz)\n"},
		{"cycle", "INPUT(a)\nx = AND(a, y)\ny = AND(a, x)\nOUTPUT(y)\n"},
	}
	for _, c := range cases {
		if _, err := ParseBenchString(c.name, c.text); err == nil {
			t.Errorf("%s: parse succeeded, want error", c.name)
		}
	}
}

func TestSelfLoopThroughDFFAllowed(t *testing.T) {
	// Feedback through a flip-flop is legal in a synchronous circuit.
	text := "INPUT(a)\nq = DFF(z)\nz = AND(a, q)\nOUTPUT(z)\n"
	if _, err := ParseBenchString("ffloop", text); err != nil {
		t.Fatalf("DFF feedback rejected: %v", err)
	}
}

func TestCommentsAndCase(t *testing.T) {
	text := "input(a) # the input\n  Output(a)  \n"
	c, err := ParseBenchString("cc", text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(c.PIs) != 1 || len(c.POs) != 1 {
		t.Errorf("got %d PIs %d POs", len(c.PIs), len(c.POs))
	}
}

func TestDuplicateOutputDeclaration(t *testing.T) {
	text := "INPUT(a)\nOUTPUT(a)\nOUTPUT(a)\n"
	c, err := ParseBenchString("dup", text)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.POs) != 1 {
		t.Errorf("duplicate OUTPUT produced %d POs", len(c.POs))
	}
}

func TestStatsString(t *testing.T) {
	c := parseS27(t)
	s := c.Stats().String()
	if !strings.Contains(s, "s27") || !strings.Contains(s, "10 gates") {
		t.Errorf("Stats.String() = %q", s)
	}
}
