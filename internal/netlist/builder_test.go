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

// TestGateIs72Bytes pins the gate layout a cached circuit pays per node:
// the fields widest first leave two bytes of padding, not ten.
func TestGateIs72Bytes(t *testing.T) {
	if sz := unsafe.Sizeof(Gate{}); sz != 72 {
		t.Errorf("Gate is %d bytes, want 72", sz)
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

// TestDecomposeDegenerateOneInput: 1-input AND/NAND gates are legal
// (identity / inversion); Decompose must keep them verbatim and preserve
// the function.
func TestDecomposeDegenerateOneInput(t *testing.T) {
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
	d, err := Decompose(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Gates) != len(c.Gates) {
		t.Errorf("decompose changed gate count %d -> %d on in-limit circuit",
			len(c.Gates), len(d.Gates))
	}
	for _, v := range []logic.V{logic.Zero, logic.One, logic.X} {
		vals := map[string]logic.V{"a": v}
		if w, g := evalFlat(t, c, vals, "z"), evalFlat(t, d, vals, "z"); w != g {
			t.Errorf("a=%v: %v vs %v", v, w, g)
		}
	}
}

// TestDecomposeDFFOnlyCycle: a register loop with no combinational logic
// at all (two DFFs feeding each other) is a legal synchronous circuit;
// Build and Decompose must both accept it unchanged.
func TestDecomposeDFFOnlyCycle(t *testing.T) {
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
	d, err := Decompose(c, 2)
	if err != nil {
		t.Fatalf("Decompose on DFF-only cycle: %v", err)
	}
	if len(d.Gates) != 2 || len(d.DFFs) != 2 {
		t.Errorf("decompose changed DFF ring shape: %d gates, %d DFFs",
			len(d.Gates), len(d.DFFs))
	}
}

// TestDecomposeWideWithDFFFeedback: decomposition across a register
// boundary — the wide gate sits on a DFF feedback path, so the rebuilt
// circuit must keep the loop legal and the per-cycle function intact.
func TestDecomposeWideWithDFFFeedback(t *testing.T) {
	b := NewBuilder("widefb")
	in := make([]string, 7)
	for i := range in {
		in[i] = string(rune('a' + i))
		b.Input(in[i])
	}
	fanin := append([]string{"q"}, in...)
	b.DFF("q", "z").
		Gate("z", logic.OpNor, fanin...).
		Output("z")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	d, err := Decompose(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Gates {
		if n := len(d.Gates[i].Fanin); n > 3 {
			t.Errorf("gate %s still has %d fanins", d.Gates[i].Name, n)
		}
	}
	if len(d.DFFs) != 1 {
		t.Fatalf("DFF lost in decomposition")
	}
}
