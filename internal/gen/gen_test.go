package gen

import (
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
)

func TestGenerateShape(t *testing.T) {
	specs := []Spec{
		{Name: "tiny", PIs: 2, POs: 1, DFFs: 0, Gates: 5, Seed: 1},
		{Name: "small", PIs: 4, POs: 3, DFFs: 4, Gates: 60, Seed: 2},
		{Name: "mid", PIs: 18, POs: 19, DFFs: 5, Gates: 289, Seed: 3},
		{Name: "big", PIs: 35, POs: 49, DFFs: 179, Gates: 2779, Seed: 4},
	}
	for _, spec := range specs {
		c, err := Generate(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		st := c.Stats()
		if st.PIs != spec.PIs || st.POs != spec.POs || st.DFFs != spec.DFFs || st.Gates != spec.Gates {
			t.Errorf("%s: got %v, want %+v", spec.Name, st, spec)
		}
		if st.MaxLevel < 2 {
			t.Errorf("%s: circuit is flat (depth %d)", spec.Name, st.MaxLevel)
		}
		if st.MaxFanin > logic.MaxPins {
			t.Errorf("%s: max fanin %d exceeds packing limit", spec.Name, st.MaxFanin)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := Spec{Name: "d", PIs: 5, POs: 4, DFFs: 6, Gates: 100, Seed: 42}
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if bench(t, a) != bench(t, b) {
		t.Error("same spec generated different circuits")
	}
	spec.Seed = 43
	c, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if bench(t, a) == bench(t, c) {
		t.Error("different seeds generated identical circuits")
	}
}

// bench renders c as .bench text.
func bench(t *testing.T, c *netlist.Circuit) string {
	t.Helper()
	var sb strings.Builder
	if err := netlist.WriteBench(&sb, c); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestGenerateRejectsEmpty(t *testing.T) {
	if _, err := Generate(Spec{Name: "x"}); err == nil {
		t.Error("empty spec accepted")
	}
}

func TestGenerateSequentialDepthUsable(t *testing.T) {
	// The generated state machines must actually exercise flip-flops:
	// at least one DFF D input must depend on a flip-flop output
	// (feedback), otherwise the circuit is a pipeline at best.
	c, err := Generate(Spec{Name: "fb", PIs: 4, POs: 4, DFFs: 10, Gates: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Reachability from FF outputs forward to any DFF D input.
	reach := make([]bool, len(c.Gates))
	var stack []netlist.GateID
	for _, ff := range c.DFFs {
		reach[ff] = true
		stack = append(stack, ff)
	}
	feedback := false
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, fo := range c.Fanout(g) {
			if c.Gate(fo).Op == logic.OpDFF {
				feedback = true
				continue
			}
			if !reach[fo] {
				reach[fo] = true
				stack = append(stack, fo)
			}
		}
	}
	if !feedback {
		t.Error("no feedback path from any FF output to any FF input")
	}
}
