package proofs

import (
	"context"
	"testing"

	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/serial"
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

var testCircuits = []struct{ name, text string }{
	{"s27", s27Bench},
	{"comb", `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(z)
OUTPUT(w)
n1 = NAND(a, b)
n2 = NOR(b, c)
z = XOR(n1, n2)
w = AND(n1, n2, a)
`},
	{"ffchain", `
INPUT(a)
OUTPUT(z)
q1 = DFF(a)
q2 = DFF(q1)
q3 = DFF(q2)
z = XNOR(q3, a)
`},
	{"feedback", `
INPUT(en)
INPUT(d)
OUTPUT(q)
OUTPUT(nz)
sel = NOT(en)
h1 = AND(q, sel)
h2 = AND(d, en)
nxt = OR(h1, h2)
q = DFF(nxt)
nz = NOT(q)
`},
	{"piToDff", `
INPUT(a)
OUTPUT(z)
q = DFF(a)
z = NOT(q)
`},
	{"poOnPi", `
INPUT(a)
OUTPUT(a)
OUTPUT(z)
q = DFF(a)
z = NOT(q)
`},
}

func mustParse(t *testing.T, name, text string) *netlist.Circuit {
	t.Helper()
	c, err := netlist.ParseBenchString(name, text)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestMatchesSerial cross-validates PROOFS against the brute-force oracle:
// identical detected sets and identical first-detection vectors.
func TestMatchesSerial(t *testing.T) {
	for _, tc := range testCircuits {
		c := mustParse(t, tc.name, tc.text)
		for _, uni := range []struct {
			name string
			u    *faults.Universe
		}{
			{"full", faults.StuckAll(c)},
			{"collapsed", faults.StuckCollapsed(c)},
		} {
			vs := vectors.Random(c, 150, int64(len(tc.name)*31+7))
			want, _ := serial.Simulate(context.Background(), uni.u, vs)
			sim, err := New(uni.u)
			if err != nil {
				t.Fatalf("%s/%s: New: %v", tc.name, uni.name, err)
			}
			got := sim.Run(vs)
			if d := want.Diff(got); d != "" {
				t.Errorf("%s/%s: PROOFS disagrees with serial:\n%s", tc.name, uni.name, d)
				continue
			}
			for i := range want.DetectedAt {
				if want.DetectedAt[i] != got.DetectedAt[i] {
					t.Errorf("%s/%s: fault %s first detected at %d, serial says %d",
						tc.name, uni.name, uni.u.Faults[i].Name(c),
						got.DetectedAt[i], want.DetectedAt[i])
					break
				}
				if want.PotDetected[i] != got.PotDetected[i] {
					t.Errorf("%s/%s: fault %s potential detection %v, serial says %v",
						tc.name, uni.name, uni.u.Faults[i].Name(c),
						got.PotDetected[i], want.PotDetected[i])
					break
				}
			}
		}
	}
}

// TestManyFaultsSpanGroups forces multiple 64-fault groups by using the
// full uncollapsed universe (s27 has 32 lines -> >64 faults).
func TestManyFaultsSpanGroups(t *testing.T) {
	c := mustParse(t, "s27", s27Bench)
	u := faults.StuckAll(c)
	if u.NumFaults() <= W {
		t.Fatalf("universe too small (%d) to span groups", u.NumFaults())
	}
	vs := vectors.Random(c, 100, 555)
	sim, err := New(u)
	if err != nil {
		t.Fatal(err)
	}
	got := sim.Run(vs)
	want, _ := serial.Simulate(context.Background(), u, vs)
	if d := want.Diff(got); d != "" {
		t.Errorf("multi-group run disagrees with serial:\n%s", d)
	}
	if sim.Stats().Groups == 0 {
		t.Error("no groups simulated")
	}
}

func TestRejectsTransitionUniverse(t *testing.T) {
	c := mustParse(t, "s27", s27Bench)
	if _, err := New(faults.Transition(c)); err == nil {
		t.Error("New accepted a transition universe")
	}
}

func TestFaultDroppingShrinksWork(t *testing.T) {
	c := mustParse(t, "buf", "INPUT(a)\nOUTPUT(z)\nz = BUFF(a)\n")
	u := faults.StuckAll(c)
	sim, err := New(u)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := vectors.ParseString("1\n0\n1\n0\n", 1)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run(vs)
	if res.Coverage() != 1.0 {
		t.Fatalf("coverage %v, want 1", res.Coverage())
	}
	if len(sim.active) != 0 {
		t.Errorf("%d faults still active after full coverage", len(sim.active))
	}
}

func TestStatsPopulated(t *testing.T) {
	c := mustParse(t, "s27", s27Bench)
	u := faults.StuckCollapsed(c)
	sim, err := New(u)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(vectors.Random(c, 50, 3))
	st := sim.Stats()
	if st.Groups == 0 || st.Evals == 0 || st.MemBytes == 0 {
		t.Errorf("stats not populated: %+v", st)
	}
}
