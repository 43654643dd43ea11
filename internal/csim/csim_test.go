package csim

import (
	"context"
	"testing"

	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
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

// testCircuits exercise the simulator corners: pure combinational,
// feedback through FFs, reconvergent fanout, XOR trees, FF-to-FF chains,
// duplicated fanin pins, PO-on-PI and PO-on-FF.
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
	{"duppin", `
INPUT(a)
INPUT(b)
OUTPUT(z)
m = AND(a, a)
z = OR(m, b)
`},
	{"poOnPi", `
INPUT(a)
OUTPUT(a)
OUTPUT(z)
q = DFF(a)
z = NOT(q)
`},
	{"reconv", `
INPUT(a)
INPUT(b)
OUTPUT(z)
s = NOT(a)
p1 = AND(s, b)
p2 = OR(s, b)
z = XOR(p1, p2)
`},
	{"counterish", `
INPUT(rst)
OUTPUT(q0)
OUTPUT(q1)
nrst = NOT(rst)
t0 = NOT(q0)
d0 = AND(t0, nrst)
x1 = XOR(q1, q0)
d1 = AND(x1, nrst)
q0 = DFF(d0)
q1 = DFF(d1)
`},
}

var configs = []struct {
	name string
	cfg  Config
}{
	{"plain", Config{}},
	{"csim-V", V()},
	{"csim-M", M()},
	{"csim-MV", MV()},
	{"eager", Config{SplitLists: true, Macros: true, EagerDrop: true}},
	{"reconv", Config{SplitLists: true, ReconvergentMacros: true}},
}

func mustParse(t *testing.T, name, text string) *netlist.Circuit {
	t.Helper()
	c, err := netlist.ParseBenchString(name, text)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestStuckAtMatchesSerial is the central cross-validation: every csim
// configuration must report exactly the serial oracle's detected fault
// set, with identical first-detection vectors.
func TestStuckAtMatchesSerial(t *testing.T) {
	for _, tc := range testCircuits {
		c := mustParse(t, tc.name, tc.text)
		for _, uni := range []struct {
			name string
			u    *faults.Universe
		}{
			{"full", faults.StuckAll(c)},
			{"collapsed", faults.StuckCollapsed(c)},
		} {
			vs := vectors.Random(c, 150, int64(len(tc.name)*77+1))
			want, _ := serial.Simulate(context.Background(), uni.u, vs)
			for _, cf := range configs {
				sim, err := New(uni.u, cf.cfg)
				if err != nil {
					t.Fatalf("%s/%s/%s: New: %v", tc.name, uni.name, cf.name, err)
				}
				got := sim.Run(vs)
				if d := want.Diff(got); d != "" {
					t.Errorf("%s/%s/%s: csim disagrees with serial:\n%s",
						tc.name, uni.name, cf.name, d)
					continue
				}
				for i := range want.DetectedAt {
					if want.DetectedAt[i] != got.DetectedAt[i] {
						t.Errorf("%s/%s/%s: fault %s first detected at %d, serial says %d",
							tc.name, uni.name, cf.name,
							uni.u.Faults[i].Name(c), got.DetectedAt[i], want.DetectedAt[i])
						break
					}
					if want.PotDetected[i] != got.PotDetected[i] {
						t.Errorf("%s/%s/%s: fault %s potential detection %v, serial says %v",
							tc.name, uni.name, cf.name,
							uni.u.Faults[i].Name(c), got.PotDetected[i], want.PotDetected[i])
						break
					}
				}
			}
		}
	}
}

// TestTransitionMatchesSerial cross-validates the §3 transition-fault mode.
func TestTransitionMatchesSerial(t *testing.T) {
	for _, tc := range testCircuits {
		c := mustParse(t, tc.name, tc.text)
		u := faults.Transition(c)
		vs := vectors.Random(c, 200, int64(len(tc.name)*13+5))
		want, _ := serial.Simulate(context.Background(), u, vs)
		for _, cf := range configs {
			sim, err := New(u, cf.cfg)
			if err != nil {
				t.Fatalf("%s/%s: New: %v", tc.name, cf.name, err)
			}
			got := sim.Run(vs)
			if d := want.Diff(got); d != "" {
				t.Errorf("%s/%s: transition csim disagrees with serial:\n%s", tc.name, cf.name, d)
				continue
			}
			for i := range want.DetectedAt {
				if want.DetectedAt[i] != got.DetectedAt[i] {
					t.Errorf("%s/%s: fault %s first detected at %d, serial says %d",
						tc.name, cf.name, u.Faults[i].Name(c), got.DetectedAt[i], want.DetectedAt[i])
					break
				}
			}
		}
	}
}

// TestGoodMachineAgreesWithGoodsim: csim's embedded good machine must track
// the standalone good simulator at every root and source.
func TestGoodMachineAgreesWithGoodsim(t *testing.T) {
	c := mustParse(t, "s27", s27Bench)
	u := faults.StuckCollapsed(c)
	vs := vectors.Random(c, 100, 321)
	sim, err := New(u, MV())
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefGood(c)
	for _, vec := range vs.Vecs {
		sim.Cycle(vec)
		ref.cycle(vec)
		for id, m := range sim.plan.ByRoot {
			if m == nil {
				continue
			}
			if sim.GoodVal(netlist.GateID(id)) != ref.val[id] {
				t.Fatalf("good value mismatch at %s: %v vs %v",
					c.Gate(netlist.GateID(id)).Name, sim.GoodVal(netlist.GateID(id)), ref.val[id])
			}
		}
		for _, src := range append(append([]netlist.GateID{}, c.PIs...), c.DFFs...) {
			if sim.GoodVal(src) != ref.val[src] {
				t.Fatalf("good source mismatch at %s", c.Gate(src).Name)
			}
		}
	}
}

// refGood is an independent full-evaluation good machine.
type refGood struct {
	c   *netlist.Circuit
	val []logic.V
}

func newRefGood(c *netlist.Circuit) *refGood {
	r := &refGood{c: c, val: make([]logic.V, len(c.Gates))}
	for i := range r.val {
		r.val[i] = logic.X
	}
	return r
}

func (r *refGood) cycle(vec []logic.V) {
	for i, pi := range r.c.PIs {
		r.val[pi] = vec[i]
	}
	for _, lv := range r.c.Levels {
		for _, id := range lv {
			g := r.c.Gate(id)
			in := make([]logic.V, len(g.Fanin))
			for j, f := range g.Fanin {
				in[j] = r.val[f]
			}
			r.val[id] = logic.Eval(g.Op, in)
		}
	}
	next := make([]logic.V, len(r.c.DFFs))
	for i, ff := range r.c.DFFs {
		next[i] = r.val[r.c.Gate(ff).Fanin[0]]
	}
	for i, ff := range r.c.DFFs {
		r.val[ff] = next[i]
	}
}

// TestNoElementLeaks: after dropping every fault (full-coverage run), the
// live element count must return to near zero once lists are swept.
func TestNoElementLeaks(t *testing.T) {
	c := mustParse(t, "buf", "INPUT(a)\nOUTPUT(z)\nz = BUFF(a)\n")
	u := faults.StuckAll(c)
	sim, err := New(u, MV())
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
	if sim.Stats().CurElems != 0 {
		t.Errorf("%d elements still live after all faults detected", sim.Stats().CurElems)
	}
}

// TestListInvariants walks every list after every cycle: sorted, sentinel-
// terminated, visibility placement correct.
func TestListInvariants(t *testing.T) {
	c := mustParse(t, "s27", s27Bench)
	u := faults.StuckAll(c)
	for _, cf := range configs {
		sim, err := New(u, cf.cfg)
		if err != nil {
			t.Fatal(err)
		}
		vs := vectors.Random(c, 60, 9)
		for _, vec := range vs.Vecs {
			sim.Cycle(vec)
			live := 0
			for gi := range c.Gates {
				for li, head := range []int32{sim.vis[gi], sim.inv[gi]} {
					prev := int32(-1)
					cur := head
					for cur != 0 {
						e := sim.arena[cur]
						if prev >= 0 && sim.arena[prev].fault >= e.fault {
							t.Fatalf("%s: list at gate %d not strictly sorted", cf.name, gi)
						}
						if e.fault >= sim.sentinel {
							t.Fatalf("%s: sentinel fault id inside list", cf.name)
						}
						if cf.cfg.SplitLists {
							root := netlist.GateID(gi)
							visNow := e.word.Out() != sim.goodVal[root]
							if li == 0 && !visNow && !c.Gate(root).IsSource() {
								t.Fatalf("%s: invisible element in visible list at %s (fault %s)",
									cf.name, c.Gate(root).Name, u.Faults[e.fault].Name(c))
							}
							if li == 1 && visNow {
								t.Fatalf("%s: visible element in invisible list at %s",
									cf.name, c.Gate(root).Name)
							}
						}
						live++
						prev = cur
						cur = e.next
					}
				}
			}
			if live != sim.Stats().CurElems {
				t.Fatalf("%s: %d linked elements but CurElems=%d", cf.name, live, sim.Stats().CurElems)
			}
		}
	}
}

// TestSplitReducesPropagationWork: csim-V must evaluate no more faulty
// machines than the unsplit variant (invisible elements are skipped during
// propagation). We check the weaker, always-true property that results
// agree and both terminate; the ablation bench quantifies the difference.
func TestSplitAgreesWithUnsplit(t *testing.T) {
	c := mustParse(t, "s27", s27Bench)
	u := faults.StuckAll(c)
	vs := vectors.Random(c, 300, 1234)
	a, err := New(u, Config{SplitLists: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(u, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ra := a.Run(vs)
	rb := b.Run(vs)
	if d := ra.Diff(rb); d != "" {
		t.Errorf("split vs unsplit disagree:\n%s", d)
	}
}

func TestMacroReducesGoodEvals(t *testing.T) {
	c := mustParse(t, "s27", s27Bench)
	u := faults.StuckAll(c)
	vs := vectors.Random(c, 300, 77)
	m, err := New(u, M())
	if err != nil {
		t.Fatal(err)
	}
	v, err := New(u, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m.Run(vs)
	v.Run(vs)
	if m.Stats().GoodEvals >= v.Stats().GoodEvals {
		t.Errorf("macro extraction did not reduce good evaluations: %d vs %d",
			m.Stats().GoodEvals, v.Stats().GoodEvals)
	}
	if m.Stats().Macros >= v.Stats().Macros {
		t.Errorf("macro plan has %d macros, trivial %d", m.Stats().Macros, v.Stats().Macros)
	}
}

func TestRunPanicsOnWidthMismatch(t *testing.T) {
	c := mustParse(t, "s27", s27Bench)
	u := faults.StuckAll(c)
	sim, err := New(u, MV())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Run with wrong vector width did not panic")
		}
	}()
	sim.Run(vectors.New(2))
}

func TestTraceEventsEmitted(t *testing.T) {
	c := mustParse(t, "buf", "INPUT(a)\nOUTPUT(z)\nz = BUFF(a)\n")
	u := faults.StuckAll(c)
	flog := obs.NewFaultLog(u.NumFaults(), nil, 0)
	cfg := MV()
	cfg.Obs = &obs.Observer{Faults: flog}
	sim, err := New(u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vs, _ := vectors.ParseString("1\n0\n", 1)
	sim.Run(vs)
	var div, det int
	events, _ := flog.Events()
	for _, ev := range events {
		switch ev.Kind {
		case obs.FaultDiverged:
			div++
		case obs.FaultDetected:
			det++
		}
	}
	if div == 0 || det == 0 {
		t.Errorf("fault log recorded %d divergences, %d detections; want both > 0", div, det)
	}
}

// TestDataStructure pins down the Figure 2 properties: sentinel at arena
// slot 0, terminal fault ID above every real fault, never dropped.
func TestDataStructure(t *testing.T) {
	c := mustParse(t, "s27", s27Bench)
	u := faults.StuckAll(c)
	sim, err := New(u, MV())
	if err != nil {
		t.Fatal(err)
	}
	if sim.arena[0].fault != int32(len(u.Faults)) {
		t.Errorf("sentinel fault = %d, want %d", sim.arena[0].fault, len(u.Faults))
	}
	if sim.arena[0].next != 0 {
		t.Error("sentinel must link to itself")
	}
	for _, f := range u.Faults {
		if f.ID >= sim.sentinel {
			t.Errorf("fault ID %d not below sentinel %d", f.ID, sim.sentinel)
		}
	}
	if sim.dropped[sim.sentinel] {
		t.Error("sentinel descriptor marked dropped")
	}
	vs := vectors.Random(c, 50, 2)
	sim.Run(vs)
	if sim.dropped[sim.sentinel] {
		t.Error("sentinel descriptor dropped during simulation")
	}
}

// TestWideMacrosUseReplayPath: raising the macro leaf cap beyond the
// lookup-table bound exercises the cone-replay evaluation path and the
// per-fault replay injection for wide functional faults; results must
// still match the serial oracle.
func TestWideMacrosUseReplayPath(t *testing.T) {
	c := mustParse(t, "s27", s27Bench)
	u := faults.StuckAll(c)
	vs := vectors.Random(c, 150, 88)
	cfg := MV()
	cfg.MacroMaxInputs = 12 // above macro.TableMaxInputs
	sim, err := New(u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := sim.Run(vs)
	want, _ := serial.Simulate(context.Background(), u, vs)
	if d := want.Diff(got); d != "" {
		t.Errorf("wide-macro csim disagrees with serial:\n%s", d)
	}
}

// TestResetBehaviour: Stats survive but simulation state returns to the
// initial all-X configuration... csim has no public Reset; constructing a
// fresh simulator over the same universe must be independent of earlier
// runs (universes are read-only).
func TestUniverseReuseAcrossSimulators(t *testing.T) {
	c := mustParse(t, "s27", s27Bench)
	u := faults.StuckAll(c)
	vs := vectors.Random(c, 80, 21)
	a, err := New(u, MV())
	if err != nil {
		t.Fatal(err)
	}
	ra := a.Run(vs)
	b, err := New(u, MV())
	if err != nil {
		t.Fatal(err)
	}
	rb := b.Run(vs)
	if d := ra.Diff(rb); d != "" {
		t.Errorf("universe reuse changed results:\n%s", d)
	}
}

// TestTransitionRetriggerFlush: after a delayed edge, the fault effect
// must vanish on the next cycle even when no new events reach the
// site macro — the retrigger mechanism. A constant input after an edge
// reproduces it.
func TestTransitionRetriggerFlush(t *testing.T) {
	c := mustParse(t, "tr", "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nm = AND(a, b)\nz = BUFF(m)\n")
	u := faults.Transition(c)
	// b toggles each cycle; a rises once then stays constant, so the STR
	// machine at m's pin 0 must converge without any event on pin 0.
	vs, err := vectors.ParseString("01\n11\n10\n11\n10\n", 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{{}, MV()} {
		sim, err := New(u, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := sim.Run(vs)
		want, _ := serial.Simulate(context.Background(), u, vs)
		if d := want.Diff(got); d != "" {
			t.Errorf("macros=%v: retrigger flush broken:\n%s", cfg.Macros, d)
		}
	}
}

// TestMergeStatsSums: the merge must sum every additive counter and the
// memory accounting — partitions own disjoint arenas, so a
// last-writer-wins merge would under-report the run's footprint. Macros
// describes the shared plan, so the merge keeps the maximum.
func TestMergeStatsSums(t *testing.T) {
	a := Stats{Evals: 10, Skips: 3, GoodEvals: 7, PeakElems: 100,
		CurElems: 4, Macros: 9, MemBytes: 1600, Detections: 2}
	b := Stats{Evals: 1, Skips: 2, GoodEvals: 3, PeakElems: 40,
		CurElems: 5, Macros: 9, MemBytes: 640, Detections: 6}
	got := MergeStats(a, b)
	want := Stats{Evals: 11, Skips: 5, GoodEvals: 10, PeakElems: 140,
		CurElems: 9, Macros: 9, MemBytes: 2240, Detections: 8}
	if got != want {
		t.Errorf("MergeStats = %+v, want %+v", got, want)
	}
	if one := MergeStats(a); one != a {
		t.Errorf("MergeStats of one part = %+v, want %+v", one, a)
	}
}
