package compiled

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/csim"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/goodsim"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/serial"
	"repro/internal/vectors"
)

func genCircuit(t *testing.T, seed int64, pis, pos, ffs, gates int) *netlist.Circuit {
	t.Helper()
	c, err := gen.Generate(gen.Spec{
		Name: fmt.Sprintf("rnd%d", seed),
		PIs:  pis, POs: pos, DFFs: ffs, Gates: gates, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func compare(t *testing.T, tag string, want, got *faults.Result) {
	t.Helper()
	if d := want.Diff(got); d != "" {
		t.Fatalf("%s: detections differ:\n%s", tag, d)
	}
	for i := range want.DetectedAt {
		if want.DetectedAt[i] != got.DetectedAt[i] {
			t.Fatalf("%s: fault %s first detected at %d, oracle %d", tag,
				want.Universe.Faults[i].Name(want.Universe.Circuit),
				got.DetectedAt[i], want.DetectedAt[i])
		}
		if want.PotDetected[i] != got.PotDetected[i] {
			t.Fatalf("%s: fault %s potential %v, oracle %v", tag,
				want.Universe.Faults[i].Name(want.Universe.Circuit),
				got.PotDetected[i], want.PotDetected[i])
		}
	}
}

// checkClean runs the faults ids on nw workers and requires every node
// of every worker to be good again afterwards: current planes equal to
// the good ones, neither dirty nor scheduled.
func checkClean(t *testing.T, tag string, u *faults.Universe, vs *vectors.Set, ids []int32, nw int) {
	t.Helper()
	sim, err := New(u)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	tr, _ := sim.p.Trace(vs)
	ws, err := sim.runWorkers(context.Background(), tr, ids, nw, nil)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	for wi, w := range ws {
		if len(w.dirty)+len(w.touched)+len(w.pos) != 0 {
			t.Fatalf("%s: worker %d ended with %d dirty, %d touched, %d output gates listed",
				tag, wi, len(w.dirty), len(w.touched), len(w.pos))
		}
		for g := range w.nodes {
			n := &w.nodes[g]
			if n.v1 != n.g1 || n.v0 != n.g0 || n.flags&(flagDirty|flagSched) != 0 {
				t.Fatalf("%s: worker %d left gate %s dirty: planes %x/%x, good %x/%x, flags %b",
					tag, wi, u.Circuit.Gates[g].Name, n.v1, n.v0, n.g1, n.g0, n.flags)
			}
		}
	}
}

// runBoth runs the serial oracle and csim-C over the same workload and
// requires bit-identical results on 1, 2, 3 and 7 workers — asked for
// outright, so a universe of one chunk also covers more workers than
// chunks — with counters that do not depend on the worker count. The
// universe dealt into three ID lists, and a fourth empty one, must merge
// to the same result and the same counters. No run may leave a node
// dirty.
func runBoth(t *testing.T, tag string, u *faults.Universe, vs *vectors.Set) {
	t.Helper()
	want, _ := serial.Simulate(context.Background(), u, vs)
	checkClean(t, tag, u, vs, u.IDs(), 3)
	run := func(ids []int32, nw int) (*faults.Result, csim.Stats) {
		t.Helper()
		sim, err := New(u)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		got, err := sim.RunFaults(context.Background(), vs, ids, nw, nil)
		if err != nil {
			t.Fatalf("%s: %d workers: %v", tag, nw, err)
		}
		return got, sim.Stats()
	}
	same := func(a, b csim.Stats) bool {
		return a.Evals == b.Evals && a.Scheds == b.Scheds && a.Passes == b.Passes && a.Steps == b.Steps &&
			a.Detections == b.Detections
	}
	var one csim.Stats
	for _, nw := range []int{1, 2, 3, 7} {
		got, st := run(u.IDs(), nw)
		compare(t, fmt.Sprintf("%s/w%d", tag, nw), want, got)
		if nw == 1 {
			one = st
		} else if !same(st, one) || st.GoodEvals != one.GoodEvals {
			t.Fatalf("%s: counters on %d workers %+v, on one %+v", tag, nw, st, one)
		}
	}

	lists := make([][]int32, 4)
	for i := u.NumFaults() - 1; i >= 0; i-- {
		lists[i%3] = append(lists[i%3], int32(i))
	}
	var parts []*faults.Result
	var stats []csim.Stats
	for _, ids := range lists {
		got, st := run(ids, 2)
		if got.NumDet > len(ids) {
			t.Fatalf("%s: %d detections from a list of %d faults", tag, got.NumDet, len(ids))
		}
		parts, stats = append(parts, got), append(stats, st)
	}
	compare(t, tag+"/lists", want, faults.MergeResults(parts...))
	if sum := csim.MergeStats(stats...); !same(sum, one) {
		t.Fatalf("%s: counters over ID lists %+v, over the universe %+v", tag, sum, one)
	}
}

// TestWidthEdges pins the bit-parallel pass boundaries — vector counts
// around and across the 64-lane word width, up to four blocks — on every
// fault model, over a universe smaller than one chunk and over one of
// several chunks.
func TestWidthEdges(t *testing.T) {
	small := genCircuit(t, 7, 4, 3, 5, 40)
	large := genCircuit(t, 8, 6, 5, 10, 130)
	if n := faults.StuckCollapsed(small).NumFaults(); n >= chunkFaults {
		t.Fatalf("small universe has %d faults, want under one chunk of %d", n, chunkFaults)
	}
	if n := faults.StuckAll(large).NumFaults(); n <= 2*chunkFaults {
		t.Fatalf("large universe has %d faults, want over two chunks of %d", n, chunkFaults)
	}
	for _, c := range []*netlist.Circuit{small, large} {
		for _, nv := range []int{1, 63, 64, 65, 130, 200} {
			vs := vectors.Random(c, nv, int64(nv))
			for _, model := range []string{"stuck", "stuck-all", "transition"} {
				var u *faults.Universe
				switch model {
				case "stuck":
					u = faults.StuckCollapsed(c)
				case "stuck-all":
					u = faults.StuckAll(c)
				case "transition":
					u = faults.Transition(c)
				}
				runBoth(t, fmt.Sprintf("%s/%s/n=%d", c.Name, model, nv), u, vs)
			}
		}
	}
}

// TestWorkersCap pins the worker count a run uses: what was asked for,
// at least one, at most one per 256-fault chunk.
func TestWorkersCap(t *testing.T) {
	for _, tc := range []struct{ requested, faults, want int }{
		{0, 5000, 1}, {-3, 5000, 1}, {1, 0, 1},
		{8, 256, 1}, {8, 257, 2}, {8, 431, 2}, {8, 1024, 4}, {2, 56921, 2}, {300, 56921, 223},
	} {
		if got := Workers(tc.requested, tc.faults); got != tc.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", tc.requested, tc.faults, got, tc.want)
		}
	}
}

// TestNodeFitsCacheLine pins the layout the fault passes are built on,
// and the sizes the memory accounting uses.
func TestNodeFitsCacheLine(t *testing.T) {
	if sz := unsafe.Sizeof(node{}); sz != 64 {
		t.Errorf("node is %d bytes, want exactly the 64 of a cache line", sz)
	}
	if nodeBytes != unsafe.Sizeof(node{}) {
		t.Errorf("node is %d bytes, nodeBytes says %d", unsafe.Sizeof(node{}), nodeBytes)
	}
	if sz := unsafe.Sizeof(faultState{}); sz != slotBytes {
		t.Errorf("faultState is %d bytes, slotBytes says %d", sz, slotBytes)
	}
	if sz := unsafe.Sizeof(ffDiff{}); sz != diffBytes {
		t.Errorf("ffDiff is %d bytes, diffBytes says %d", sz, diffBytes)
	}
}

// TestRandomCircuitsAgree sweeps circuit shapes — combinational-only,
// state-heavy, FF-to-FF chains — against the oracle.
func TestRandomCircuitsAgree(t *testing.T) {
	shapes := []struct{ pis, pos, ffs, gates int }{
		{2, 2, 0, 12},
		{4, 3, 2, 30},
		{3, 2, 6, 25},
		{5, 4, 8, 80},
		{6, 5, 12, 150},
	}
	for si, sh := range shapes {
		for seed := int64(1); seed <= 3; seed++ {
			c := genCircuit(t, 100*int64(si)+seed, sh.pis, sh.pos, sh.ffs, sh.gates)
			vs := vectors.Random(c, 70, seed)
			runBoth(t, c.Name+"/stuck", faults.StuckCollapsed(c), vs)
			runBoth(t, c.Name+"/stuck-all", faults.StuckAll(c), vs)
			runBoth(t, c.Name+"/transition", faults.Transition(c), vs)
		}
	}
}

// TestBundledCircuits checks csim-C against the oracle on bundled
// suite circuits for both fault models.
func TestBundledCircuits(t *testing.T) {
	names := []string{"s27", "s298", "s344"}
	nv := 48
	if testing.Short() {
		names = names[:2]
		nv = 24
	}
	for _, name := range names {
		c, err := iscas.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		vs := vectors.Random(c, nv, 42)
		runBoth(t, name+"/stuck", faults.StuckCollapsed(c), vs)
		runBoth(t, name+"/transition", faults.Transition(c), vs)
	}
}

// TestXVectors drives explicit X input values through the packed
// planes.
func TestXVectors(t *testing.T) {
	c := genCircuit(t, 11, 3, 2, 4, 30)
	vs := vectors.Random(c, 40, 3)
	for i := range vs.Vecs {
		vs.Vecs[i][i%len(vs.Vecs[i])] = logic.X
	}
	runBoth(t, "xvec/stuck", faults.StuckCollapsed(c), vs)
	runBoth(t, "xvec/transition", faults.Transition(c), vs)
}

// TestTraceMatchesGoodsim checks the packed trace lane-for-lane
// against the interpreted good machine.
func TestTraceMatchesGoodsim(t *testing.T) {
	c := genCircuit(t, 5, 4, 3, 5, 60)
	vs := vectors.Random(c, 130, 9)
	p := Compile(c)
	tr, _ := p.Trace(vs)
	ref := goodsim.New(c)
	for cyc, vec := range vs.Vecs {
		ref.Apply(vec)
		for g := range c.Gates {
			if got, want := tr.At(cyc, netlist.GateID(g)), ref.Val(netlist.GateID(g)); got != want {
				t.Fatalf("cycle %d gate %s: trace %v, goodsim %v", cyc, c.Gates[g].Name, got, want)
			}
		}
		ref.Clock()
	}
}

// TestGoodMatchesGoodsim checks the compiled good machine against the
// interpreted one at the primary outputs.
func TestGoodMatchesGoodsim(t *testing.T) {
	c := genCircuit(t, 21, 5, 4, 6, 90)
	vs := vectors.Random(c, 100, 13)
	g := Compile(c).NewGood()
	ref := goodsim.New(c)
	for cyc := 0; cyc < vs.Len(); cyc++ {
		g.Cycle(vs.Vecs[cyc])
		ref.Apply(vs.Vecs[cyc])
		for i, po := range c.POs {
			if got, want := g.Val(po), ref.Val(po); got != want {
				t.Fatalf("cycle %d PO %d: compiled %v, goodsim %v", cyc, i, got, want)
			}
		}
		ref.Clock()
	}
}

// TestStatsAccounting pins the work a run does, not the time it takes:
// the exact evaluation, pass and continuation counts on two bundled
// circuits, so a silent fall-back to one fresh pass per cutoff or a
// bucket counted twice shows as an integer diff.
func TestStatsAccounting(t *testing.T) {
	for _, tc := range []struct {
		circuit, model       string
		nv                   int
		evals, passes, steps int
	}{
		{"s27", "stuck", 48, 808, 26, 144},
		{"s27", "stuck", 130, 2071, 60, 378},
		{"s27", "transition", 48, 141, 324, 51},
		{"s27", "transition", 130, 349, 888, 131},
		{"s298", "stuck", 48, 24447, 431, 1231},
		{"s298", "stuck", 130, 33673, 911, 1953},
		{"s298", "transition", 48, 13268, 1407, 499},
		{"s298", "transition", 130, 20134, 3166, 832},
	} {
		c, err := iscas.Get(tc.circuit)
		if err != nil {
			t.Fatal(err)
		}
		u := faults.StuckCollapsed(c)
		if tc.model == "transition" {
			u = faults.Transition(c)
		}
		sim, err := New(u)
		if err != nil {
			t.Fatal(err)
		}
		res := sim.Run(vectors.Random(c, tc.nv, 42))
		st := sim.Stats()
		tag := fmt.Sprintf("%s/%s/n=%d", tc.circuit, tc.model, tc.nv)
		if st.Evals != tc.evals || st.Passes != tc.passes || st.Steps != tc.steps {
			t.Errorf("%s: evals %d, passes %d, steps %d; want %d, %d, %d",
				tag, st.Evals, st.Passes, st.Steps, tc.evals, tc.passes, tc.steps)
		}
		if st.Scheds != st.Evals {
			t.Errorf("%s: %d gates scheduled, %d evaluated", tag, st.Scheds, st.Evals)
		}
		if st.GoodEvals == 0 || st.MemBytes <= 0 {
			t.Errorf("%s: GoodEvals %d, MemBytes %d not accounted", tag, st.GoodEvals, st.MemBytes)
		}
		if st.Detections != res.NumDet {
			t.Errorf("%s: Detections = %d, result has %d", tag, st.Detections, res.NumDet)
		}
	}
}

// mustParse builds a circuit from .bench text.
func mustParse(t *testing.T, name, text string) *netlist.Circuit {
	t.Helper()
	c, err := netlist.ParseBenchString(name, text)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDegenerateShapes holds the fault passes to the oracle where a loop
// bound or a list is at its edge: no primary output, state differences
// that travel from register to register with no gate between them (so
// the continuation runs on flip-flop nodes a flip-flop samples), a ring
// of registers that never leaves X, one fault, one vector, a universe of
// exactly one chunk. runBoth adds more workers than chunks, an empty ID
// list, and the check that no node stays dirty.
func TestDegenerateShapes(t *testing.T) {
	const chain = `
INPUT(a)
d = NAND(a, q3)
q0 = DFF(d)
q1 = DFF(q0)
q2 = DFF(q1)
q3 = DFF(q2)
r0 = DFF(r1)
r1 = DFF(r0)
`
	ring := mustParse(t, "ring", chain+"OUTPUT(q3)\nOUTPUT(r1)\n")
	blind := mustParse(t, "blind", chain)
	large := genCircuit(t, 8, 6, 5, 10, 130)
	first := func(u *faults.Universe, n int) *faults.Universe {
		if u.NumFaults() < n {
			t.Fatalf("universe of %d faults, need %d", u.NumFaults(), n)
		}
		return &faults.Universe{Circuit: u.Circuit, Faults: u.Faults[:n]}
	}
	for _, tc := range []struct {
		name string
		c    *netlist.Circuit
		nv   int
		cut  int // keep the first cut faults of each universe; 0 keeps all
	}{
		{"ring", ring, 70, 0},
		{"ring/1-vector", ring, 1, 0},
		{"no-outputs", blind, 70, 0},
		{"1-fault", large, 70, 1},
		{"1-vector", large, 1, 0},
		{"256-faults", large, 130, chunkFaults},
	} {
		vs := vectors.Random(tc.c, tc.nv, 5)
		for i, u := range []*faults.Universe{faults.StuckAll(tc.c), faults.Transition(tc.c)} {
			if tc.cut > 0 {
				u = first(u, tc.cut)
			}
			runBoth(t, tc.name+"/"+[]string{"stuck-all", "transition"}[i], u, vs)
		}
	}
}

// TestWorkerPanicIsAnError makes one worker of three panic: the run must
// return that as an error naming the worker and carrying the stack, not
// take the process down, and the Sim must run again afterwards.
func TestWorkerPanicIsAnError(t *testing.T) {
	c := genCircuit(t, 8, 6, 5, 10, 130)
	u := faults.StuckAll(c)
	ids := u.IDs()[:3*chunkFaults]
	vs := vectors.Random(c, 70, 1)
	sim, err := New(u)
	if err != nil {
		t.Fatal(err)
	}
	watch := func(worker int, done bool, _, _ int) {
		if worker == 1 && !done {
			panic("boom")
		}
	}
	res, err := sim.RunFaults(context.Background(), vs, ids, 3, watch)
	if err == nil || res != nil {
		t.Fatalf("run with a panicking worker returned result %v, error %v", res, err)
	}
	for _, want := range []string{"compiled: worker 1: panic: boom", "TestWorkerPanicIsAnError"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not contain %q", err, want)
		}
	}
	got, err := sim.RunFaults(context.Background(), vs, ids, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := serial.Simulate(context.Background(), &faults.Universe{Circuit: c, Faults: u.Faults[:len(ids)]}, vs)
	for _, id := range ids {
		if got.DetectedAt[id] != want.DetectedAt[id] || got.PotDetected[id] != want.PotDetected[id] {
			t.Fatalf("fault %d after the failed run: detected at %d (potential %v), oracle %d (%v)",
				id, got.DetectedAt[id], got.PotDetected[id], want.DetectedAt[id], want.PotDetected[id])
		}
	}
}

// TestNewWithRejectsMismatch pins the Program/Universe circuit check.
func TestNewWithRejectsMismatch(t *testing.T) {
	a := genCircuit(t, 41, 3, 2, 2, 20)
	b := genCircuit(t, 43, 3, 2, 2, 20)
	if _, err := NewWith(Compile(a), faults.StuckCollapsed(b)); err == nil {
		t.Fatal("NewWith accepted a universe over a different circuit")
	}
}
