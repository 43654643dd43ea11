package atpg

import (
	"context"
	"testing"

	"repro/internal/faults"
	"repro/internal/iscas"
	"repro/internal/netlist"
	"repro/internal/serial"
	"repro/internal/vectors"
)

func mustParse(t *testing.T, name, text string) *netlist.Circuit {
	t.Helper()
	c, err := netlist.ParseBenchString(name, text)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCombinationalFullCoverage(t *testing.T) {
	// Every fault of an irredundant combinational circuit must be found.
	c := mustParse(t, "comb", `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(z)
n1 = NAND(a, b)
n2 = NOR(b, c)
z = XOR(n1, n2)
`)
	u := faults.StuckCollapsed(c)
	res := Generate(u, Options{Seed: 1})
	if res.Detected != u.NumFaults() {
		t.Errorf("detected %d/%d faults; aborted=%d untestable=%d",
			res.Detected, u.NumFaults(), res.Aborted, res.Untestable)
	}
}

func TestSequentialActivationThroughState(t *testing.T) {
	// Detecting faults on z requires latching a value first: sequences
	// must span at least two frames.
	c := mustParse(t, "ff", `
INPUT(a)
OUTPUT(z)
q = DFF(a)
z = AND(q, a)
`)
	u := faults.StuckCollapsed(c)
	res := Generate(u, Options{Seed: 3})
	if got := float64(res.Detected) / float64(u.NumFaults()); got < 0.9 {
		t.Errorf("coverage %.2f too low; aborted=%d untestable=%d",
			got, res.Aborted, res.Untestable)
	}
	if res.Vectors.Len() < 2 {
		t.Errorf("sequence of %d vectors cannot exercise state", res.Vectors.Len())
	}
}

func TestS27CoverageBeatsRandom(t *testing.T) {
	// Note: under 3-valued simulation from the all-X state the good s27
	// machine reaches only 8 states and its PO never outputs 0, so hard
	// (binary/binary) detection coverage is structurally capped well below
	// the nominal fault count. The deterministic generator must therefore
	// detect everything a long random sequence detects, with far fewer
	// vectors.
	c := iscas.MustGet("s27")
	u := faults.StuckCollapsed(c)
	res := Generate(u, Options{Seed: 7, FillRandom: true})
	// Cross-check the claimed coverage with the independent serial oracle.
	oracle, _ := serial.Simulate(context.Background(), u, res.Vectors)
	if oracle.NumDet != res.Detected {
		t.Fatalf("campaign reports %d detections, serial oracle %d", res.Detected, oracle.NumDet)
	}
	rnd, _ := serial.Simulate(context.Background(), u, vectors.Random(c, 1000, 99))
	for i := range rnd.Detected {
		if rnd.Detected[i] && !oracle.Detected[i] {
			t.Errorf("random-detectable fault %s missed by ATPG", u.Faults[i].Name(c))
		}
	}
	if res.Vectors.Len() >= 1000 {
		t.Errorf("ATPG needed %d vectors; not more compact than random", res.Vectors.Len())
	}
}

func TestUntestableFaultClassified(t *testing.T) {
	// z = OR(a, NOT(a)) is constant 1: z SA1 is untestable.
	c := mustParse(t, "red", `
INPUT(a)
OUTPUT(z)
na = NOT(a)
z = OR(a, na)
`)
	u := faults.StuckAll(c)
	res := Generate(u, Options{Seed: 1})
	if res.Untestable == 0 {
		t.Errorf("no untestable faults found in a redundant circuit (aborted=%d)", res.Aborted)
	}
	// And the testable ones must still be covered: z SA0 is detectable.
	oracle, _ := serial.Simulate(context.Background(), u, res.Vectors)
	var zSA0 int32 = -1
	for i, f := range u.Faults {
		if f.Gate == c.MustByName("z") && f.Pin == faults.OutPin && f.Kind == faults.SA0 {
			zSA0 = int32(i)
		}
	}
	if !oracle.Detected[zSA0] {
		t.Error("z/O SA0 not detected")
	}
}

func TestUnobservableFaultIsUntestable(t *testing.T) {
	// Gate u drives nothing: its faults can never reach a PO.
	c := mustParse(t, "dead", `
INPUT(a)
INPUT(b)
OUTPUT(z)
z = AND(a, b)
deadend = OR(a, b)
`)
	u := faults.StuckAll(c)
	res := Generate(u, Options{Seed: 2})
	if res.Untestable == 0 {
		t.Error("unobservable faults not classified untestable")
	}
}

func TestDeterministic(t *testing.T) {
	c := iscas.MustGet("s27")
	u := faults.StuckCollapsed(c)
	a := Generate(u, Options{Seed: 11})
	b := Generate(u, Options{Seed: 11})
	if a.Vectors.String() != b.Vectors.String() {
		t.Error("same seed produced different test sets")
	}
	if a.Detected != b.Detected {
		t.Errorf("same seed, different coverage: %d vs %d", a.Detected, b.Detected)
	}
}

func TestGenerateVectorsWrapper(t *testing.T) {
	c := iscas.MustGet("s27")
	u := faults.StuckCollapsed(c)
	vs := GenerateVectors(u, Options{Seed: 5})
	if vs.Len() == 0 || vs.NumPIs != len(c.PIs) {
		t.Errorf("bad vector set: %d vecs, %d PIs", vs.Len(), vs.NumPIs)
	}
}
