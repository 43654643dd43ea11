package faults

import (
	"testing"
	"testing/quick"
	"unsafe"

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

func s27(t *testing.T) *netlist.Circuit {
	t.Helper()
	c, err := netlist.ParseBenchString("s27", s27Bench)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestStuckAllCount(t *testing.T) {
	c := s27(t)
	u := StuckAll(c)
	// Every gate output line x2, every input pin x2.
	pins := 0
	for i := range c.Gates {
		pins += len(c.Fanin(netlist.GateID(i)))
	}
	want := 2 * (len(c.Gates) + pins)
	if got := u.NumFaults(); got != want || cap(u.Faults) != want {
		t.Errorf("StuckAll count = %d (cap %d), want %d", got, cap(u.Faults), want)
	}
	for i, f := range u.Faults {
		if int(f.ID) != i {
			t.Fatalf("fault %d has ID %d", i, f.ID)
		}
		// StuckCollapsed's Rep indexes this list by the same formula.
		if at := 2*(int32(f.Gate)+c.FaninOff[f.Gate]) + 2*int32(f.Pin+1) + int32(f.Kind); at != int32(i) {
			t.Fatalf("fault %s at index %d, formula says %d", f.Name(c), i, at)
		}
	}
}

func TestStuckCollapsedSmaller(t *testing.T) {
	c := s27(t)
	full := StuckAll(c)
	col := StuckCollapsed(c)
	if col.NumFaults() >= full.NumFaults() {
		t.Errorf("collapsed %d not smaller than full %d", col.NumFaults(), full.NumFaults())
	}
	if len(col.Rep) != full.NumFaults() {
		t.Fatalf("Rep has %d entries, want %d", len(col.Rep), full.NumFaults())
	}
	// Every representative must map to itself.
	for i, f := range full.Faults {
		rep := col.Rep[i]
		if rep < 0 || int(rep) >= col.NumFaults() {
			t.Fatalf("Rep[%d] out of range: %d", i, rep)
		}
		rf := col.Faults[rep]
		// A fault and its representative always share a stuck value parity
		// only up to inversion chains, but the representative of a
		// representative is itself:
		key := rf
		key.ID = 0
		for j, g := range full.Faults {
			gk := g
			gk.ID = 0
			if gk == key && col.Rep[j] != rep {
				t.Fatalf("representative %v not in its own class", rf.Name(c))
			}
		}
		_ = f
	}
}

// TestCollapseRules verifies the local equivalences directly on a single
// gate of each type.
func TestCollapseRules(t *testing.T) {
	cases := []struct {
		op      logic.Op
		inKind  Kind
		outKind Kind
	}{
		{logic.OpAnd, SA0, SA0},
		{logic.OpNand, SA0, SA1},
		{logic.OpOr, SA1, SA1},
		{logic.OpNor, SA1, SA0},
	}
	for _, cse := range cases {
		b := netlist.NewBuilder("one")
		b.Input("a").Input("b")
		b.Gate("z", cse.op, "a", "b")
		b.Output("z")
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		u := StuckCollapsed(c)
		z := iscastest.MustByName(c, "z")
		full := StuckAll(c)
		var inIdx, outIdx int32 = -1, -1
		for i, f := range full.Faults {
			if f.Gate == z && f.Pin == 0 && f.Kind == cse.inKind {
				inIdx = int32(i)
			}
			if f.Gate == z && f.Pin == OutPin && f.Kind == cse.outKind {
				outIdx = int32(i)
			}
		}
		if inIdx < 0 || outIdx < 0 {
			t.Fatal("fault indices not found")
		}
		if u.Rep[inIdx] != u.Rep[outIdx] {
			t.Errorf("%v: input %v and output %v not equivalent", cse.op, cse.inKind, cse.outKind)
		}
	}
}

func TestCollapseInverterChain(t *testing.T) {
	// a -> NOT x -> NOT z : all six faults collapse into exactly 2 classes
	// (SA0/SA1 on the single through-line, with inversions folded).
	b := netlist.NewBuilder("chain")
	b.Input("a")
	b.Gate("x", logic.OpNot, "a")
	b.Gate("z", logic.OpNot, "x")
	b.Output("z")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	u := StuckCollapsed(c)
	if u.NumFaults() != 2 {
		t.Errorf("inverter chain collapsed to %d faults, want 2", u.NumFaults())
	}
}

func TestFaultName(t *testing.T) {
	c := s27(t)
	g9 := iscastest.MustByName(c, "G9")
	f := Fault{Gate: g9, Pin: 1, Kind: SA0}
	if got := f.Name(c); got != "G9/IN1 SA0" {
		t.Errorf("Name = %q", got)
	}
	f2 := Fault{Gate: g9, Pin: OutPin, Kind: STR}
	if got := f2.Name(c); got != "G9/O STR" {
		t.Errorf("Name = %q", got)
	}
}

// TestFaultIs12Bytes pins the size a universe pays per fault.
func TestFaultIs12Bytes(t *testing.T) {
	if sz := unsafe.Sizeof(Fault{}); sz != 12 {
		t.Errorf("Fault is %d bytes, want 12", sz)
	}
}

func TestTransitionUniverse(t *testing.T) {
	c := s27(t)
	u := Transition(c)
	pins := 0
	for i := range c.Gates {
		if c.Gates[i].Op == logic.OpInput {
			continue
		}
		pins += len(c.Fanin(netlist.GateID(i)))
	}
	if got := u.NumFaults(); got != 2*pins {
		t.Errorf("Transition count = %d, want %d", got, 2*pins)
	}
	if cap(u.Faults) != len(u.Faults) {
		t.Errorf("Transition holds %d faults in an array of %d", len(u.Faults), cap(u.Faults))
	}
	for i, f := range u.Faults {
		if int(f.ID) != i {
			t.Fatalf("fault %d has ID %d", i, f.ID)
		}
		if f.Kind != STR && f.Kind != STF {
			t.Fatalf("fault %d has kind %v", i, f.Kind)
		}
		if f.Pin == OutPin {
			t.Fatalf("transition fault on output pin")
		}
	}
}

// TestTransitionTable checks every row of the paper's Table 1.
func TestTransitionTable(t *testing.T) {
	type row struct{ pv, cv, str, stf logic.V }
	rows := []row{
		// pv  cv   STR-FV  STF-FV
		{0, 0, 0, 0},
		{0, 1, 0, 1}, // rising edge delayed by STR
		{1, 0, 0, 1}, // falling edge delayed by STF
		{1, 1, 1, 1},
		{0, logic.X, 0, logic.X},
		{1, logic.X, logic.X, 1},
		{logic.X, 0, 0, logic.X},
		{logic.X, 1, logic.X, 1},
		{logic.X, logic.X, logic.X, logic.X},
	}
	for _, r := range rows {
		if got := TransitionFV(STR, r.pv, r.cv); got != r.str {
			t.Errorf("STR FV(pv=%v,cv=%v) = %v, want %v", r.pv, r.cv, got, r.str)
		}
		if got := TransitionFV(STF, r.pv, r.cv); got != r.stf {
			t.Errorf("STF FV(pv=%v,cv=%v) = %v, want %v", r.pv, r.cv, got, r.stf)
		}
	}
}

// Property: when no transition is possible (pv == cv) the faulty value
// equals the good value.
func TestTransitionNoOpWhenStable(t *testing.T) {
	f := func(raw uint8, kindRaw bool) bool {
		v := logic.V(raw % 3)
		k := STR
		if kindRaw {
			k = STF
		}
		return TransitionFV(k, v, v) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResult(t *testing.T) {
	c := s27(t)
	u := StuckCollapsed(c)
	r := NewResult(u)
	if r.Coverage() != 0 {
		t.Error("fresh result has nonzero coverage")
	}
	if !r.Detect(3, 7) {
		t.Error("first Detect returned false")
	}
	if r.Detect(3, 9) {
		t.Error("second Detect returned true")
	}
	if r.DetectedAt[3] != 7 {
		t.Errorf("DetectedAt = %d, want 7", r.DetectedAt[3])
	}
	if r.NumDet != 1 {
		t.Errorf("NumDet = %d", r.NumDet)
	}
	r2 := NewResult(u)
	if d := r.Diff(r2); d == "" {
		t.Error("Diff of differing results is empty")
	}
	r2.Detect(3, 7)
	if d := r.Diff(r2); d != "" {
		t.Errorf("Diff of equal results = %q", d)
	}
	r2.DetectedAt[3] = 6
	if d := r.Diff(r2); d == "" {
		t.Error("Diff of results detecting a fault at different vectors is empty")
	}
	r2.DetectedAt[3] = 7
	r2.PotDetect(4)
	if d := r.Diff(r2); d == "" {
		t.Error("Diff of results that differ in a potential detection is empty")
	}
}

func TestCoverageEmptyUniverse(t *testing.T) {
	u := &Universe{}
	r := NewResult(u)
	if r.Coverage() != 0 {
		t.Error("empty universe coverage not 0")
	}
}

// TestMergeResults: union of detections, min first-detecting vector on
// overlap, union of potential detections — all independent of argument
// order.
func TestMergeResults(t *testing.T) {
	c := s27(t)
	u := StuckCollapsed(c)
	if u.NumFaults() < 4 {
		t.Fatalf("need at least 4 faults, have %d", u.NumFaults())
	}
	a := NewResult(u)
	a.Detect(0, 5)
	a.Detect(1, 2)
	a.PotDetect(3)
	b := NewResult(u)
	b.Detect(0, 3) // earlier than a's vector 5: the merge must keep 3
	b.Detect(2, 7)
	b.PotDetect(1)

	check := func(m *Result) {
		t.Helper()
		if m.NumDet != 3 {
			t.Errorf("merged NumDet = %d, want 3", m.NumDet)
		}
		wantAt := map[int32]int32{0: 3, 1: 2, 2: 7}
		for id, at := range wantAt {
			if !m.Detected[id] || m.DetectedAt[id] != at {
				t.Errorf("fault %d: detected=%v at %d, want at %d",
					id, m.Detected[id], m.DetectedAt[id], at)
			}
		}
		if !m.PotDetected[1] || !m.PotDetected[3] {
			t.Errorf("potential detections not unioned: %v", m.PotDetected)
		}
	}
	check(MergeResults(a, b))
	check(MergeResults(b, a))

	defer func() {
		if recover() == nil {
			t.Error("merging results over different universe sizes did not panic")
		}
	}()
	tiny := NewResult(&Universe{Circuit: c, Faults: u.Faults[:1]})
	MergeResults(a, tiny)
}
