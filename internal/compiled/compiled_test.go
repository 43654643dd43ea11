package compiled

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/csim"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/goodsim"
	"repro/internal/iscas"
	"repro/internal/iscas/iscastest"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/parallel"
	"repro/internal/serial"
	"repro/internal/vectors"
)

// newSim compiles u's circuit and returns a simulator over it, on a pool
// of its own.
func newSim(u *faults.Universe) (*Sim, error) {
	return NewPooled(NewPool(Compile(u.Circuit)), u)
}

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
	sim, err := newSim(u)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	tr, _ := sim.pool.p.Trace(vs)
	ws, err := sim.runWorkers(context.Background(), tr, ids, faults.NewResult(u), nw, nil)
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
		sim, err := newSim(u)
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
	if n := faults.StuckCollapsed(small).NumFaults(); n >= ChunkFaults {
		t.Fatalf("small universe has %d faults, want under one chunk of %d", n, ChunkFaults)
	}
	if n := faults.StuckAll(large).NumFaults(); n <= 2*ChunkFaults {
		t.Fatalf("large universe has %d faults, want over two chunks of %d", n, ChunkFaults)
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

// TestProgramKeepsNoSlack pins what a cached Program holds: the
// circuit's own fanin array, not a copy, and an instruction stream
// allocated at its exact length.
func TestProgramKeepsNoSlack(t *testing.T) {
	for _, c := range []*netlist.Circuit{genCircuit(t, 8, 6, 5, 10, 130), iscastest.MustGet("s298")} {
		p := Compile(c)
		if unsafe.SliceData(p.fanins) != unsafe.SliceData(c.Fanins) || len(p.fanins) != len(c.Fanins) {
			t.Errorf("%s: the program's fanins are not the circuit's", c.Name)
		}
		if cap(p.scode) != len(p.scode) {
			t.Errorf("%s: %d sops in an array of %d", c.Name, len(p.scode), cap(p.scode))
		}
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

// wideBench writes a random sequential .bench netlist built around the
// gates the four fanin slots do not cover: AND/NAND/OR/NOR of 5 to 12
// inputs and XOR/XNOR of 2, 3 and 5 (the netlist rejects a one-input
// XOR). Slot gates of one to four inputs, NOT and BUFF sit between
// them, so events cross from one evaluation path to the other. Every
// gate reads distinct signals defined before it; flip-flops close the
// loops.
func wideBench(seed int64, pis, ffs, gates int) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	pool := make([]string, 0, pis+ffs+gates)
	for i := 0; i < pis; i++ {
		fmt.Fprintf(&b, "INPUT(i%d)\n", i)
		pool = append(pool, fmt.Sprintf("i%d", i))
	}
	for i := 0; i < ffs; i++ {
		pool = append(pool, fmt.Sprintf("q%d", i))
	}
	base := []string{"AND", "NAND", "OR", "NOR"}
	for i := 0; i < gates; i++ {
		var op string
		var arity int
		switch k := i % 4; {
		case k == 0:
			op, arity = base[rng.Intn(4)], 5+rng.Intn(8)
		case k == 1:
			op, arity = []string{"XOR", "XNOR"}[rng.Intn(2)], []int{2, 3, 5}[rng.Intn(3)]
		case rng.Intn(4) == 0:
			op, arity = []string{"NOT", "BUFF"}[rng.Intn(2)], 1
		default:
			op, arity = base[rng.Intn(4)], 1+rng.Intn(4)
		}
		ins := make([]string, arity)
		for j, k := range rng.Perm(len(pool))[:arity] {
			ins[j] = pool[k]
		}
		name := fmt.Sprintf("g%d", i)
		fmt.Fprintf(&b, "%s = %s(%s)\n", name, op, strings.Join(ins, ", "))
		pool = append(pool, name)
	}
	for i := 0; i < ffs; i++ {
		fmt.Fprintf(&b, "q%d = DFF(g%d)\n", i, gates/2+rng.Intn(gates-gates/2))
	}
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&b, "OUTPUT(g%d)\n", gates-1-3*i)
	}
	return b.String()
}

// TestLoopGatesAgree holds the fanin-loop path — XOR/XNOR and gates of
// more than four inputs, which no bundled circuit has — to the oracle,
// on X-bearing vectors and both fault models, across three blocks.
func TestLoopGatesAgree(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		c := mustParse(t, fmt.Sprintf("wide%d", seed), wideBench(seed, 14, 6, 48))
		vs := vectors.Random(c, 150, seed)
		for i := range vs.Vecs {
			vs.Vecs[i][(i*5)%len(vs.Vecs[i])] = logic.X
		}
		runBoth(t, c.Name+"/stuck-all", faults.StuckAll(c), vs)
		runBoth(t, c.Name+"/transition", faults.Transition(c), vs)
	}
}

// TestFaninSlots pins the node's fanin slots: a gate's fanins in order,
// then its last one repeated, and the loop flag on exactly the XOR/XNOR
// gates and those of more than four inputs.
func TestFaninSlots(t *testing.T) {
	circuits := []*netlist.Circuit{iscastest.MustGet("s35932")}
	for seed := int64(1); seed <= 3; seed++ {
		circuits = append(circuits, mustParse(t, fmt.Sprintf("wide%d", seed), wideBench(seed, 14, 6, 48)))
	}
	for _, c := range circuits {
		w := newWorker(Compile(c))
		loops := 0
		for g := range c.Gates {
			n, ins := &w.nodes[g], c.Fanin(netlist.GateID(g))
			if len(ins) == 0 {
				if n.flags&flagLoop != 0 {
					t.Errorf("%s: source %s carries the loop flag", c.Name, c.Gates[g].Name)
				}
				continue
			}
			for j, in := range n.in {
				if want := ins[min(j, len(ins)-1)]; in != want {
					t.Errorf("%s: gate %s slot %d holds gate %d, want %d (fanins %v)",
						c.Name, c.Gates[g].Name, j, in, want, ins)
				}
			}
			op := c.Gates[g].Op
			loop := op == logic.OpXor || op == logic.OpXnor || len(ins) > slotFanins
			if got := n.flags&flagLoop != 0; got != loop {
				t.Errorf("%s: gate %s (%v, %d inputs) loop flag %v, want %v",
					c.Name, c.Gates[g].Name, op, len(ins), got, loop)
			}
			if loop {
				loops++
			}
		}
		if c.Name != "s35932" && loops != 24 {
			t.Errorf("%s: %d loop gates, want the generator's 24", c.Name, loops)
		}
	}
}

// traceAt returns gate g's settled good value on the given cycle.
func traceAt(tr *Trace, cycle int, g netlist.GateID) logic.V {
	v1, v0 := tr.block(cycle / wordW)
	return planeVal(v1[g], v0[g], uint(cycle%wordW))
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
			if got, want := traceAt(tr, cyc, netlist.GateID(g)), ref.Val(netlist.GateID(g)); got != want {
				t.Fatalf("cycle %d gate %s: trace %v, goodsim %v", cyc, c.Gates[g].Name, got, want)
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
		{"s298", "stuck", 48, 17434, 331, 1040},
		{"s298", "stuck", 130, 23015, 611, 1501},
		{"s298", "transition", 48, 9396, 1097, 398},
		{"s298", "transition", 130, 13610, 2292, 630},
	} {
		c, err := iscas.Get(tc.circuit)
		if err != nil {
			t.Fatal(err)
		}
		u := faults.StuckCollapsed(c)
		if tc.model == "transition" {
			u = faults.Transition(c)
		}
		sim, err := newSim(u)
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

// deadRegion returns .bench lines that add to c logic no primary output
// reads: a ring of two flip-flops, and a chain of gates over one of c's
// inputs, one of its flip-flops and its last gate that a third flip-flop
// closes into a loop. Faults of c spill into the chain; none of it is
// ever observed.
func deadRegion(c *netlist.Circuit) string {
	pi := c.Gates[c.PIs[0]].Name
	ff := c.Gates[c.DFFs[0]].Name
	last := c.Gates[len(c.Gates)-1].Name
	return fmt.Sprintf(`
dead_r0 = DFF(dead_r1)
dead_r1 = DFF(dead_r0)
dead_g0 = NAND(%s, dead_q)
dead_g1 = NOR(dead_g0, %s)
dead_g2 = XOR(dead_g1, dead_r0)
dead_g3 = AND(dead_g2, %s, dead_g0)
dead_q = DFF(dead_g3)
`, pi, ff, last)
}

// TestUnobservableFaultsAreUndetectable holds the Program's observable
// set to what the kernel builds on: a fault sited on a gate from which
// no primary output can be reached, combinationally or through
// flip-flops, is never hard or potentially detected by the serial
// oracle, and csim-C, which never opens such a fault, equals the oracle
// on every fault. The suite circuits s27 through s1494 and generated
// circuits given a dead region run both fault models under random and
// all-X vectors; the stuck-at universes of four suite circuits pin how
// many faults are skipped.
func TestUnobservableFaultsAreUndetectable(t *testing.T) {
	type run struct {
		c  *netlist.Circuit
		nv int // random vectors
	}
	// The serial oracle takes seconds a circuit from s641 on.
	stop := "s5378"
	if testing.Short() || raceEnabled {
		stop = "s641"
	}
	var runs []run
	for _, name := range iscas.Names() {
		if name == stop {
			break
		}
		runs = append(runs, run{iscastest.MustGet(name), 24})
	}
	for seed := int64(1); seed <= 3; seed++ {
		c := genCircuit(t, 200+seed, 5, 4, 8, 80)
		dead := mustParse(t, c.Name+"-dead", iscastest.BenchString(c)+deadRegion(c))
		p, n := Compile(dead), 0
		for g := range dead.Gates {
			if strings.HasPrefix(dead.Gates[g].Name, "dead_") {
				if p.observable[g] {
					t.Fatalf("%s: dead gate %s classed observable", dead.Name, dead.Gates[g].Name)
				}
				n++
			}
		}
		if n != 7 {
			t.Fatalf("%s: %d dead gates, want 7", dead.Name, n)
		}
		runs = append(runs, run{dead, 70})
	}
	for _, r := range runs {
		c, p := r.c, Compile(r.c)
		allX := vectors.New(len(c.PIs))
		for i := 0; i < 8; i++ {
			v := make([]logic.V, len(c.PIs))
			for j := range v {
				v[j] = logic.X
			}
			allX.Append(v)
		}
		for _, model := range []string{"stuck", "transition"} {
			u := faults.StuckCollapsed(c)
			if model == "transition" {
				u = faults.Transition(c)
			}
			for vi, vs := range []*vectors.Set{vectors.Random(c, r.nv, 3), allX} {
				tag := fmt.Sprintf("%s/%s/%s", c.Name, model, []string{"random", "all-X"}[vi])
				want, err := serial.Simulate(context.Background(), u, vs)
				if err != nil {
					t.Fatal(err)
				}
				for i := range u.Faults {
					f := &u.Faults[i]
					if !p.observable[f.Gate] && (want.Detected[i] || want.PotDetected[i]) {
						t.Fatalf("%s: fault %s on an unobservable gate: oracle detected %t, potential %t",
							tag, f.Name(c), want.Detected[i], want.PotDetected[i])
					}
				}
				sim, err := NewPooled(NewPool(p), u)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sim.RunFaults(context.Background(), vs, u.IDs(), 2, nil)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				compare(t, tag, want, got)
			}
		}
	}

	for _, tc := range []struct {
		circuit string
		skipped int
	}{
		{"s298", 100}, {"s1494", 1020}, {"s5378", 3104}, {"s35932", 13910},
	} {
		c := iscastest.MustGet(tc.circuit)
		p, u, n := Compile(c), faults.StuckCollapsed(c), 0
		for i := range u.Faults {
			if !p.observable[u.Faults[i].Gate] {
				n++
			}
		}
		if n != tc.skipped {
			t.Errorf("%s: %d of %d stuck-at faults sit where no output sees them, want %d",
				tc.circuit, n, u.NumFaults(), tc.skipped)
		}
	}
}

// TestDegenerateShapes holds the fault passes to the oracle where a loop
// bound or a list is at its edge: no primary output, state differences
// that travel from register to register with no gate between them (so
// the continuation runs on flip-flop nodes a flip-flop samples), a ring
// of registers that never leaves X, one fault, one vector, a universe of
// exactly one chunk, and an only output that a primary input drives, so
// nothing any fault does reaches a gate that an output can see and no
// gate is ever evaluated. runBoth adds more workers than chunks, an
// empty ID list, and the check that no node stays dirty.
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
	wire := mustParse(t, "wire", chain+"OUTPUT(a)\n")
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
		cut  int  // keep the first cut faults of each universe; 0 keeps all
		idle bool // no gate is ever evaluated
	}{
		{"ring", ring, 70, 0, false},
		{"ring/1-vector", ring, 1, 0, false},
		{"no-outputs", blind, 70, 0, true},
		{"input-output", wire, 70, 0, true},
		{"1-fault", large, 70, 1, false},
		{"1-vector", large, 1, 0, false},
		{"256-faults", large, 130, ChunkFaults, false},
	} {
		vs := vectors.Random(tc.c, tc.nv, 5)
		for i, u := range []*faults.Universe{faults.StuckAll(tc.c), faults.Transition(tc.c)} {
			if tc.cut > 0 {
				u = first(u, tc.cut)
			}
			tag := tc.name + "/" + []string{"stuck-all", "transition"}[i]
			runBoth(t, tag, u, vs)
			if !tc.idle {
				continue
			}
			sim, err := newSim(u)
			if err != nil {
				t.Fatal(err)
			}
			sim.Run(vs)
			if st := sim.Stats(); st.Evals != 0 {
				t.Errorf("%s: %d evaluations, want none", tag, st.Evals)
			}
		}
	}
}

// TestWorkerPanicIsAnError makes one worker of three panic: the run must
// return that as an error naming the worker and carrying the stack, not
// take the process down, and the Sim must run again afterwards.
func TestWorkerPanicIsAnError(t *testing.T) {
	c := genCircuit(t, 8, 6, 5, 10, 130)
	u := faults.StuckAll(c)
	ids := u.IDs()[:3*ChunkFaults]
	vs := vectors.Random(c, 70, 1)
	sim, err := newSim(u)
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

// TestNewPooledRejectsMismatch pins the Program/Universe circuit check.
func TestNewPooledRejectsMismatch(t *testing.T) {
	a := genCircuit(t, 41, 3, 2, 2, 20)
	b := genCircuit(t, 43, 3, 2, 2, 20)
	if _, err := NewPooled(NewPool(Compile(a)), faults.StuckCollapsed(b)); err == nil {
		t.Fatal("NewPooled accepted a universe over a different circuit")
	}
}

// TestOneResultPerRun: every worker of a run writes its own chunks'
// faults into the run's one result and counts its own detections. On 1,
// 2, 3 and 7 workers over the universe, and on 2 workers over each of
// three pinned Partition lists, the result's NumDet must equal the
// number of set Detected entries and the sum of the per-worker counts
// watch reports, and every listed fault must read as the serial oracle's
// while no other is detected.
func TestOneResultPerRun(t *testing.T) {
	c := genCircuit(t, 9, 6, 5, 10, 300)
	u := faults.StuckAll(c)
	if n := u.NumFaults(); n <= 4*ChunkFaults {
		t.Fatalf("universe has %d faults, want over four chunks of %d", n, ChunkFaults)
	}
	vs := vectors.Random(c, 70, 9)
	want, err := serial.Simulate(context.Background(), u, vs)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := newSim(u)
	if err != nil {
		t.Fatal(err)
	}
	check := func(tag string, ids []int32, nw int) {
		t.Helper()
		counts := make([]int, Workers(nw, len(ids)))
		watch := func(worker int, done bool, _, detected int) {
			if done {
				counts[worker] = detected
			}
		}
		got, err := sim.RunFaults(context.Background(), vs, ids, nw, watch)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		set, sum := 0, 0
		for _, d := range got.Detected {
			if d {
				set++
			}
		}
		for _, n := range counts {
			sum += n
		}
		if got.NumDet != set || got.NumDet != sum {
			t.Fatalf("%s: NumDet %d, %d Detected entries set, workers counted %v", tag, got.NumDet, set, counts)
		}
		listed := make([]bool, u.NumFaults())
		for _, id := range ids {
			listed[id] = true
		}
		for i := range listed {
			wantDet, wantAt, wantPot := want.Detected[i], want.DetectedAt[i], want.PotDetected[i]
			if !listed[i] {
				wantDet, wantAt, wantPot = false, -1, false
			}
			if got.Detected[i] != wantDet || got.DetectedAt[i] != wantAt || got.PotDetected[i] != wantPot {
				t.Fatalf("%s: fault %d detected %t at %d (potential %t), want %t at %d (%t)", tag, i,
					got.Detected[i], got.DetectedAt[i], got.PotDetected[i], wantDet, wantAt, wantPot)
			}
		}
	}
	for _, nw := range []int{1, 2, 3, 7} {
		check(fmt.Sprintf("w%d", nw), u.IDs(), nw)
	}
	for k, ids := range parallel.Partition(u, 3) {
		check(fmt.Sprintf("partition %d of 3", k), ids, 2)
	}
}
