package compiled

import (
	"context"
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/csim"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/goodsim"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/macro"
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

// runBoth runs the serial oracle and csim-C over the same workload and
// requires bit-identical results on 1, 2, 3 and 7 workers — asked for
// outright, so a universe of one chunk also covers more workers than
// chunks — with counters that do not depend on the worker count. The
// universe dealt into three ID lists, and a fourth empty one, must merge
// to the same result and the same counters.
func runBoth(t *testing.T, tag string, u *faults.Universe, vs *vectors.Set) {
	t.Helper()
	want := serial.Simulate(u, vs)
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
		return a.Evals == b.Evals && a.Scheds == b.Scheds && a.Detections == b.Detections
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
	if sz := unsafe.Sizeof(node{}); sz > 64 || sz != nodeBytes {
		t.Errorf("node is %d bytes, want nodeBytes = %d and at most 64", sz, nodeBytes)
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
	p := Compile(c, nil)
	tr, _ := p.Trace(vs)
	ref := goodsim.Record(c, vs.Vecs)
	for cyc := 0; cyc < vs.Len(); cyc++ {
		for g := range c.Gates {
			if got, want := tr.At(cyc, netlist.GateID(g)), ref.At(cyc, netlist.GateID(g)); got != want {
				t.Fatalf("cycle %d gate %s: trace %v, goodsim %v", cyc, c.Gates[g].Name, got, want)
			}
		}
	}
}

// TestGoodMatchesGoodsim checks the macro-inlined good machine against
// the interpreted one at the primary outputs, with and without a plan.
func TestGoodMatchesGoodsim(t *testing.T) {
	c := genCircuit(t, 21, 5, 4, 6, 90)
	vs := vectors.Random(c, 100, 13)
	plan, err := macro.Extract(c, macro.DefaultMaxInputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		plan *macro.Plan
	}{{"macro", plan}, {"fallback", nil}} {
		p := Compile(c, tc.plan)
		g := p.NewGood()
		ref := goodsim.New(c)
		for cyc := 0; cyc < vs.Len(); cyc++ {
			g.Cycle(vs.Vecs[cyc])
			ref.Apply(vs.Vecs[cyc])
			for i, po := range c.POs {
				if got, want := g.Val(po), ref.Val(po); got != want {
					t.Fatalf("%s: cycle %d PO %d: compiled %v, goodsim %v", tc.name, cyc, i, got, want)
				}
			}
			ref.Clock()
		}
	}
}

// TestStatsAccounting checks that a run reports the standard counters.
func TestStatsAccounting(t *testing.T) {
	c := genCircuit(t, 31, 4, 3, 4, 50)
	u := faults.StuckCollapsed(c)
	vs := vectors.Random(c, 64, 17)
	sim, err := New(u)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run(vs)
	st := sim.Stats()
	if st.GoodEvals == 0 {
		t.Error("GoodEvals = 0 after a run")
	}
	if st.Evals == 0 {
		t.Error("Evals = 0 after a run")
	}
	if st.Detections != res.NumDet {
		t.Errorf("Detections = %d, result has %d", st.Detections, res.NumDet)
	}
	if st.MemBytes <= 0 {
		t.Error("MemBytes not accounted")
	}
}

// TestNewWithRejectsMismatch pins the Program/Universe circuit check.
func TestNewWithRejectsMismatch(t *testing.T) {
	a := genCircuit(t, 41, 3, 2, 2, 20)
	b := genCircuit(t, 43, 3, 2, 2, 20)
	if _, err := NewWith(Compile(a, nil), faults.StuckCollapsed(b)); err == nil {
		t.Fatal("NewWith accepted a universe over a different circuit")
	}
}
