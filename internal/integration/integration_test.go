// Package integration cross-validates every simulator on randomly
// generated circuits — the strongest property test in the repository: for
// any circuit the generator can produce and any random workload, csim in
// all four configurations, PROOFS and the serial oracle must report
// identical detections, first-detection times and potential detections.
package integration

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/csim"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/iscas"
	"repro/internal/iscas/iscastest"
	"repro/internal/netcheck"
	"repro/internal/netlist"
	"repro/internal/proofs"
	"repro/internal/serial"
	"repro/internal/vectors"
)

// checkModel runs the netcheck structural verifier over a circuit and
// fault universe before they are simulated: a generator or collapser bug
// should fail here, not as an unexplained detection mismatch downstream.
func checkModel(t *testing.T, c *netlist.Circuit, u *faults.Universe) {
	t.Helper()
	if err := netcheck.AsError(netcheck.Check(c)); err != nil {
		t.Fatalf("%s: %v", c.Name, err)
	}
	if err := netcheck.AsError(netcheck.CheckUniverse(u)); err != nil {
		t.Fatalf("%s: %v", c.Name, err)
	}
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
		t.Errorf("%s: results differ:\n%s", tag, d)
	}
}

// TestRandomCircuitsAllEnginesAgree sweeps seeds and circuit shapes.
func TestRandomCircuitsAllEnginesAgree(t *testing.T) {
	shapes := []struct{ pis, pos, ffs, gates int }{
		{2, 2, 0, 12},   // small combinational
		{3, 3, 4, 30},   // small sequential
		{5, 4, 8, 80},   // medium
		{8, 6, 12, 150}, // larger, reconvergent
	}
	configs := []struct {
		name string
		cfg  csim.Config
	}{
		{"plain", csim.Config{}},
		{"V", csim.V()},
		{"M", csim.M()},
		{"MV", csim.MV()},
	}
	for si, shape := range shapes {
		for seed := int64(1); seed <= 3; seed++ {
			c := genCircuit(t, seed*100+int64(si), shape.pis, shape.pos, shape.ffs, shape.gates)
			u := faults.StuckCollapsed(c)
			checkModel(t, c, u)
			vs := vectors.Random(c, 80, seed)
			oracle, _ := serial.Simulate(context.Background(), u, vs)
			for _, cf := range configs {
				sim, err := csim.New(u, cf.cfg)
				if err != nil {
					t.Fatal(err)
				}
				compare(t, fmt.Sprintf("%s/csim-%s", c.Name, cf.name), oracle, sim.Run(vs))
			}
			pr, err := proofs.New(u)
			if err != nil {
				t.Fatal(err)
			}
			compare(t, c.Name+"/PROOFS", oracle, pr.Run(vs))
		}
	}
}

// TestParallelAgreesWithOracle is the parallel differential property test:
// on seeded generated circuits and random vectors, the parallel engine's
// detected-fault sets at several worker counts (including a
// non-power-of-two) must equal both the serial oracle and single-threaded
// csim-MV — detections, first-detection vectors and potential detections.
func TestParallelAgreesWithOracle(t *testing.T) {
	shapes := []struct{ pis, pos, ffs, gates int }{
		{3, 3, 4, 30},   // small sequential
		{5, 4, 8, 80},   // medium
		{8, 6, 12, 150}, // larger, reconvergent
	}
	for si, shape := range shapes {
		for seed := int64(1); seed <= 2; seed++ {
			c := genCircuit(t, seed*700+int64(si), shape.pis, shape.pos, shape.ffs, shape.gates)
			u := faults.StuckCollapsed(c)
			vs := vectors.Random(c, 80, seed)
			oracle, _ := serial.Simulate(context.Background(), u, vs)
			single, err := csim.New(u, csim.MV())
			if err != nil {
				t.Fatal(err)
			}
			mv := single.Run(vs)
			compare(t, c.Name+"/csim-MV", oracle, mv)
			for _, w := range []int{1, 2, 4, 7} {
				res, _, err := engine.Run(context.Background(), engine.CsimGrid, u, vs, engine.Options{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				compare(t, fmt.Sprintf("%s/csim-grid.w%d-vs-oracle", c.Name, w), oracle, res)
				compare(t, fmt.Sprintf("%s/csim-grid.w%d-vs-MV", c.Name, w), mv, res)
			}
		}
	}
}

// TestParallelTransitionAgreesWithOracle repeats the differential test on
// the transition-fault model, where per-fault previous-cycle driver state
// must survive the split into chunks.
func TestParallelTransitionAgreesWithOracle(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		c := genCircuit(t, 1700+seed, 4, 3, 6, 60)
		u := faults.Transition(c)
		vs := vectors.Random(c, 100, seed)
		oracle, _ := serial.Simulate(context.Background(), u, vs)
		for _, w := range []int{2, 7} {
			res, _, err := engine.Run(context.Background(), engine.CsimGrid, u, vs, engine.Options{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			compare(t, fmt.Sprintf("%s/csim-grid.w%d", c.Name, w), oracle, res)
		}
	}
}

// TestParallelDeterministic guards the merge against ordering races: runs
// at different worker counts (and repeated runs at the same count) must
// produce byte-identical merged results — same detected set, same
// first-detecting vector per fault, same potential detections.
func TestParallelDeterministic(t *testing.T) {
	c := genCircuit(t, 3131, 6, 5, 9, 110)
	u := faults.StuckCollapsed(c)
	vs := vectors.Random(c, 150, 23)
	var ref *faults.Result
	for _, w := range []int{1, 3, 5, 8} {
		for rep := 0; rep < 2; rep++ {
			res, _, err := engine.Run(context.Background(), engine.CsimGrid, u, vs, engine.Options{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = res
				continue
			}
			tag := fmt.Sprintf("workers=%d rep=%d", w, rep)
			if !reflect.DeepEqual(ref.Detected, res.Detected) {
				t.Fatalf("%s: detected set differs from first run", tag)
			}
			if !reflect.DeepEqual(ref.DetectedAt, res.DetectedAt) {
				t.Fatalf("%s: first-detection vectors differ from first run", tag)
			}
			if !reflect.DeepEqual(ref.PotDetected, res.PotDetected) {
				t.Fatalf("%s: potential detections differ from first run", tag)
			}
			if ref.NumDet != res.NumDet {
				t.Fatalf("%s: NumDet %d, first run %d", tag, res.NumDet, ref.NumDet)
			}
		}
	}
}

// TestRandomCircuitsTransitionAgree does the same for the transition-fault
// model (csim vs serial; PROOFS does not support transition faults).
func TestRandomCircuitsTransitionAgree(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		c := genCircuit(t, 900+seed, 4, 3, 6, 60)
		u := faults.Transition(c)
		checkModel(t, c, u)
		vs := vectors.Random(c, 100, seed)
		oracle, _ := serial.Simulate(context.Background(), u, vs)
		for _, cfg := range []csim.Config{{}, csim.MV()} {
			sim, err := csim.New(u, cfg)
			if err != nil {
				t.Fatal(err)
			}
			compare(t, fmt.Sprintf("%s/macros=%v", c.Name, cfg.Macros), oracle, sim.Run(vs))
		}
	}
}

// TestCompiledAgreesAcrossBundled is the csim-C three-way differential:
// on bundled suite circuits under both fault models, serial, csim-MV and
// the compiled engine must report identical detections, first-detection
// vectors and potential detections.
func TestCompiledAgreesAcrossBundled(t *testing.T) {
	names := []string{"s27", "s298", "s344", "s444"}
	nv := 60
	if testing.Short() {
		names = names[:2]
		nv = 30
	}
	for _, name := range names {
		c, err := iscas.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		vs := vectors.Random(c, nv, 7)
		for _, model := range []string{"stuck", "transition"} {
			var u *faults.Universe
			if model == "stuck" {
				u = faults.StuckCollapsed(c)
			} else {
				u = faults.Transition(c)
			}
			tag := name + "/" + model
			oracle, _ := serial.Simulate(context.Background(), u, vs)
			mvSim, err := csim.New(u, csim.MV())
			if err != nil {
				t.Fatal(err)
			}
			mv := mvSim.Run(vs)
			compare(t, tag+"/csim-MV-vs-oracle", oracle, mv)
			res, _, err := engine.Run(context.Background(), engine.CsimC, u, vs, engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			compare(t, tag+"/csim-C-vs-oracle", oracle, res)
			compare(t, tag+"/csim-C-vs-MV", mv, res)
		}
	}
}

// TestCompiledGridAgreesOnS5378 pins the csim-grid kernel switch on the
// circuit the service benchmark runs: under both fault models the
// compiled grid at every K, and the pinned shards of a 2- and a 3-way
// split merged, equal single-threaded csim-MV over the whole universe
// and the serial oracle over every 16th fault (the oracle needs a minute
// for all of them).
func TestCompiledGridAgreesOnS5378(t *testing.T) {
	if testing.Short() {
		t.Skip("s5378 differential is not short")
	}
	c := iscastest.MustGet("s5378")
	vs := vectors.Random(c, 130, 1)
	a := engine.Prepare(c)
	for _, model := range []string{"stuck", "transition"} {
		whole := faults.StuckCollapsed(c)
		if model == "transition" {
			whole = faults.Transition(c)
		}
		sample := &faults.Universe{Circuit: c}
		for i := 0; i < whole.NumFaults(); i += 16 {
			f := whole.Faults[i]
			f.ID = int32(len(sample.Faults))
			sample.Faults = append(sample.Faults, f)
		}
		mvSim, err := csim.New(whole, csim.MV())
		if err != nil {
			t.Fatal(err)
		}
		oracle, _ := serial.Simulate(context.Background(), sample, vs)
		for _, tc := range []struct {
			name string
			u    *faults.Universe
			want *faults.Result
		}{
			{"whole/csim-MV", whole, mvSim.Run(vs)},
			{"sample/serial", sample, oracle},
		} {
			for _, k := range []int{1, 2, 3, 7} {
				tag := fmt.Sprintf("s5378/%s/%s K=%d", model, tc.name, k)
				res, _, err := engine.Run(context.Background(), engine.CsimGrid, tc.u, vs, engine.Options{Workers: k, Artifacts: a})
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				compare(t, tag, tc.want, res)
			}
			for _, n := range []int{2, 3} {
				parts := make([]*faults.Result, n)
				for k := range parts {
					if parts[k], _, err = engine.Run(context.Background(), engine.CsimGrid, tc.u, vs, engine.Options{
						Shard: k, Of: n, Workers: 2, Artifacts: a}); err != nil {
						t.Fatal(err)
					}
				}
				compare(t, fmt.Sprintf("s5378/%s/%s %d shards", model, tc.name, n), tc.want, faults.MergeResults(parts...))
			}
		}
	}
}

// TestLongRunStability: a long random campaign on a mid-size circuit must
// keep csim's element accounting consistent (no leaks, no corruption) and
// match PROOFS at the end.
func TestLongRunStability(t *testing.T) {
	c := genCircuit(t, 4242, 6, 6, 10, 120)
	u := faults.StuckCollapsed(c)
	vs := vectors.Random(c, 2000, 17)
	sim, err := csim.New(u, csim.MV())
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run(vs)
	st := sim.Stats()
	if st.CurElems < 0 || st.CurElems > st.PeakElems {
		t.Errorf("element accounting broken: %+v", st)
	}
	pr, err := proofs.New(u)
	if err != nil {
		t.Fatal(err)
	}
	compare(t, "long run, PROOFS vs csim-MV", res, pr.Run(vs))
}
