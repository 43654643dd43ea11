package goodsim

import (
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/vectors"
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

// bruteCycle is an oracle: full re-evaluation of every gate in level order,
// no event-driven shortcuts.
type brute struct {
	c   *netlist.Circuit
	val []logic.V
}

func newBrute(c *netlist.Circuit) *brute {
	b := &brute{c: c, val: make([]logic.V, len(c.Gates))}
	for i := range b.val {
		b.val[i] = logic.X
	}
	return b
}

func (b *brute) cycle(vec []logic.V) []logic.V {
	for i, pi := range b.c.PIs {
		b.val[pi] = vec[i]
	}
	for _, lv := range b.c.Levels {
		for _, id := range lv {
			g := b.c.Gate(id)
			in := make([]logic.V, len(g.Fanin))
			for j, f := range g.Fanin {
				in[j] = b.val[f]
			}
			b.val[id] = logic.Eval(g.Op, in)
		}
	}
	out := make([]logic.V, len(b.c.POs))
	for i, po := range b.c.POs {
		out[i] = b.val[po]
	}
	next := make([]logic.V, len(b.c.DFFs))
	for i, ff := range b.c.DFFs {
		next[i] = b.val[b.c.Gate(ff).Fanin[0]]
	}
	for i, ff := range b.c.DFFs {
		b.val[ff] = next[i]
	}
	return out
}

const srBench = `
INPUT(set)
INPUT(clr)
OUTPUT(q)
nclr = NOT(clr)
hold = OR(q, set)
d = AND(hold, nclr)
q = DFF(d)
`

func TestSRLatchBehaviour(t *testing.T) {
	c := mustParse(t, "sr", srBench)
	s := New(c)
	steps := []struct {
		set, clr logic.V
		want     logic.V
	}{
		{1, 0, logic.X}, // q still uninitialized when sampled
		{0, 0, 1},       // set latched
		{0, 1, 1},       // clear seen, but q sampled before clock
		{0, 0, 0},       // cleared
		{0, 0, 0},       // holds
		{1, 0, 0},       // set seen; q sampled before clock
		{0, 0, 1},       // set latched
	}
	for i, st := range steps {
		out := s.Cycle([]logic.V{st.set, st.clr})
		if out[0] != st.want {
			t.Errorf("cycle %d: q = %v, want %v", i, out[0], st.want)
		}
	}
}

func TestEventDrivenMatchesBrute(t *testing.T) {
	c := mustParse(t, "s27", s27Bench)
	vs := vectors.Random(c, 200, 42)
	s := New(c)
	b := newBrute(c)
	for tstep, vec := range vs.Vecs {
		got := s.Cycle(vec)
		want := b.cycle(vec)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cycle %d PO %d: event-driven %v, brute %v", tstep, i, got[i], want[i])
			}
		}
		// Internal state must agree too.
		for g := range c.Gates {
			if s.Val(netlist.GateID(g)) != b.val[g] {
				t.Fatalf("cycle %d gate %s: %v vs %v", tstep, c.Gate(netlist.GateID(g)).Name,
					s.Val(netlist.GateID(g)), b.val[g])
			}
		}
	}
}

func TestEventCountsBelowBrute(t *testing.T) {
	c := mustParse(t, "s27", s27Bench)
	vs := vectors.Random(c, 500, 7)
	s := New(c)
	for _, vec := range vs.Vecs {
		s.Cycle(vec)
	}
	bruteEvals := 500 * c.Stats().Gates
	if s.Events >= bruteEvals {
		t.Errorf("event-driven evaluated %d gates, brute force would do %d", s.Events, bruteEvals)
	}
}

func TestReset(t *testing.T) {
	c := mustParse(t, "s27", s27Bench)
	s := New(c)
	s.Cycle([]logic.V{0, 1, 0, 1})
	s.Reset()
	for i := range c.Gates {
		if s.Val(netlist.GateID(i)) != logic.X {
			t.Fatalf("gate %d not X after Reset", i)
		}
	}
	// A reset simulator must behave like a fresh one.
	s2 := New(c)
	vs := vectors.Random(c, 50, 3)
	for tstep, vec := range vs.Vecs {
		a := s.Cycle(vec)
		b := s2.Cycle(vec)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("cycle %d: reset sim diverges", tstep)
			}
		}
	}
}

func TestRunMatchesManual(t *testing.T) {
	c := mustParse(t, "s27", s27Bench)
	vs := vectors.Random(c, 30, 11)
	resp := Run(c, vs.Vecs)
	s := New(c)
	for tstep, vec := range vs.Vecs {
		out := s.Cycle(vec)
		for i := range out {
			if out[i] != resp[tstep][i] {
				t.Fatalf("Run mismatch at cycle %d", tstep)
			}
		}
	}
}

// TestXInitialization: before any binary value reaches a signal it must be
// X, and X must clear only through controlling values.
func TestXInitialization(t *testing.T) {
	c := mustParse(t, "x", "INPUT(a)\nOUTPUT(z)\nq = DFF(a)\nz = XOR(q, a)\n")
	s := New(c)
	out := s.Cycle([]logic.V{1})
	if out[0] != logic.X {
		t.Errorf("XOR with uninitialized FF = %v, want X", out[0])
	}
	out = s.Cycle([]logic.V{1})
	if out[0] != logic.Zero {
		t.Errorf("after FF init: z = %v, want 0", out[0])
	}
}

func TestApplyWithXInputs(t *testing.T) {
	c := mustParse(t, "s27", s27Bench)
	s := New(c)
	vec := []logic.V{logic.X, logic.X, logic.X, logic.X}
	out := s.Cycle(vec)
	if !out[0].Valid() {
		t.Errorf("invalid output value %d", out[0])
	}
}

func BenchmarkGoodSimS27(b *testing.B) {
	c, err := netlist.ParseBenchString("s27", s27Bench)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	vec := make([]logic.V, len(c.PIs))
	s := New(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range vec {
			vec[j] = logic.V(rng.Intn(2))
		}
		s.Cycle(vec)
	}
}
