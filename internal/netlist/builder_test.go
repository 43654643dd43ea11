package netlist

import (
	"strings"
	"testing"
	"unsafe"

	"repro/internal/logic"
)

// TestBuildReportsAllErrors: Build must not stop at the first defect — a
// netlist with several independent problems reports every one of them in a
// single joined error.
func TestBuildReportsAllErrors(t *testing.T) {
	_, err := NewBuilder("bad").
		Input("a").
		Gate("x", logic.OpAnd, "a", "missing1").
		Gate("x", logic.OpOr, "a").          // duplicate definition
		Gate("y", logic.OpNot, "a", "a").    // arity violation
		Gate("w", logic.OpNand, "missing2"). // second undefined fanin
		Output("zz").                        // undriven primary output
		Build()
	if err == nil {
		t.Fatal("Build succeeded on a netlist with five defects")
	}
	for _, want := range []string{
		`"missing1"`, `"missing2"`, // both undefined fanins, not just the first
		`"x" defined twice`,
		`"y"`, // arity
		`"zz" is undriven`,
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q:\n%v", want, err)
		}
	}
}

// TestGateIs24Bytes pins the gate layout a cached circuit pays per node:
// a name window, a level, an op and a flag, and no adjacency.
func TestGateIs24Bytes(t *testing.T) {
	if sz := unsafe.Sizeof(Gate{}); sz != 24 {
		t.Errorf("Gate is %d bytes, want 24", sz)
	}
}

// TestAdjacencyWindowsAreCapped: an append to one gate's fanin or fanout
// list copies it out of the circuit's array instead of overwriting the
// next gate's list.
func TestAdjacencyWindowsAreCapped(t *testing.T) {
	c, err := NewBuilder("pair").
		Input("i").Input("j").
		Gate("a", logic.OpAnd, "i", "j").
		Gate("b", logic.OpOr, "j", "i").
		Output("a").Output("b").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	i, j, a, b := GateID(0), GateID(1), GateID(2), GateID(3)
	if names := c.Gates[i].Name + c.Gates[j].Name + c.Gates[a].Name + c.Gates[b].Name; names != "ijab" {
		t.Fatalf("gates numbered %q, want inputs first in declaration order", names)
	}
	if got := c.Fanin(a); cap(got) != len(got) {
		t.Errorf("Fanin(a) has len %d, cap %d", len(got), cap(got))
	}
	_ = append(c.Fanin(a), a)
	if got := c.Fanin(b); got[0] != j || got[1] != i {
		t.Errorf("append to Fanin(a) rewrote Fanin(b): %v", got)
	}
	_ = append(c.Fanout(i), i)
	if got := c.Fanout(j); got[0] != a || got[1] != b {
		t.Errorf("append to Fanout(i) rewrote Fanout(j): %v", got)
	}
}

// TestGateNamesDoNotAliasTheText: the names of a parsed circuit live in
// its own string, so the netlist text — a whole request body in the
// service — is free once the parse returns.
func TestGateNamesDoNotAliasTheText(t *testing.T) {
	text := strings.Clone(s27Bench)
	c, err := ParseBenchString("s27", text)
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(text)))
	hi := lo + uintptr(len(text))
	for i := range c.Gates {
		name := c.Gates[i].Name
		if p := uintptr(unsafe.Pointer(unsafe.StringData(name))); p >= lo && p < hi {
			t.Errorf("gate %q points into the parsed text at offset %d", name, p-lo)
		}
	}
}

// TestBuildUndefinedFaninNotMisreportedAsCycle: a hole in the fanin graph
// must surface as an undriven-signal error, never as a phantom
// combinational cycle from levelizing the incomplete graph.
func TestBuildUndefinedFaninNotMisreportedAsCycle(t *testing.T) {
	_, err := NewBuilder("hole").
		Input("a").
		Gate("x", logic.OpAnd, "a", "ghost").
		Gate("y", logic.OpNot, "x").
		Output("y").
		Build()
	if err == nil {
		t.Fatal("Build succeeded with undefined fanin")
	}
	if strings.Contains(err.Error(), "cycle") {
		t.Errorf("undefined fanin misreported as cycle: %v", err)
	}
	if !strings.Contains(err.Error(), `"ghost"`) {
		t.Errorf("error does not name the missing signal: %v", err)
	}
}

// TestBuildDegenerateOneInput: 1-input AND/NAND gates are legal
// (identity / inversion), and Build keeps them as written.
func TestBuildDegenerateOneInput(t *testing.T) {
	c, err := NewBuilder("degen").
		Input("a").
		Gate("buf1", logic.OpAnd, "a").
		Gate("inv1", logic.OpNand, "a").
		Gate("z", logic.OpOr, "buf1", "inv1").
		Output("z").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]logic.Op{"buf1": logic.OpAnd, "inv1": logic.OpNand}
	for i, g := range c.Gates {
		if op, ok := want[g.Name]; ok {
			delete(want, g.Name)
			if g.Op != op || len(c.Fanin(GateID(i))) != 1 {
				t.Errorf("gate %s: %s with %d fanins, want a one-input %s", g.Name, g.Op, len(c.Fanin(GateID(i))), op)
			}
		}
	}
	if len(want) != 0 {
		t.Errorf("gates missing: %v", want)
	}
}

// TestBuildDFFOnlyCycle: a register loop with no combinational logic
// at all (two DFFs feeding each other) is a legal synchronous circuit.
func TestBuildDFFOnlyCycle(t *testing.T) {
	c, err := NewBuilder("ffring").
		DFF("q1", "q2").
		DFF("q2", "q1").
		Output("q1").
		Build()
	if err != nil {
		t.Fatalf("DFF-only cycle rejected: %v", err)
	}
	if c.MaxLevel != 0 {
		t.Errorf("DFF-only circuit has MaxLevel %d, want 0", c.MaxLevel)
	}
	if len(c.Gates) != 2 || len(c.DFFs) != 2 {
		t.Errorf("DFF ring has %d gates, %d DFFs, want 2 and 2", len(c.Gates), len(c.DFFs))
	}
}
