package faultsim_test

import (
	"strings"
	"testing"

	faultsim "repro"
)

// TestPublicAPIEndToEnd drives the complete documented flow through the
// facade: parse, build universes, simulate with every engine, generate
// tests, and check the engines agree.
func TestPublicAPIEndToEnd(t *testing.T) {
	c, err := faultsim.Benchmark("s27")
	if err != nil {
		t.Fatal(err)
	}
	u := faultsim.StuckFaults(c)
	if u.NumFaults() == 0 {
		t.Fatal("empty universe")
	}
	vs := faultsim.RandomVectors(c, 100, 7)

	sim, err := faultsim.New(u, faultsim.CsimMV())
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run(vs)

	pr, err := faultsim.NewProofs(u)
	if err != nil {
		t.Fatal(err)
	}
	prRes := pr.Run(vs)
	if d := res.Diff(prRes); d != "" {
		t.Errorf("csim vs PROOFS:\n%s", d)
	}
	oracle := faultsim.SimulateSerial(u, vs)
	if d := res.Diff(oracle); d != "" {
		t.Errorf("csim vs serial:\n%s", d)
	}

	// The grid on a pinned budget (Config.Plan is accepted and ignored)
	// and on the scheduler's default.
	for _, procs := range []int{2, 0} {
		grid := faultsim.CsimGrid(procs, 1)
		grid.Config.Plan = nil
		gres, gstats, err := faultsim.SimulateGrid(u, vs, grid)
		if err != nil {
			t.Fatal(err)
		}
		if d := gres.Diff(oracle); d != "" {
			t.Errorf("csim-grid on %d procs vs serial:\n%s", procs, d)
		}
		if gstats.Detections != gres.NumDet {
			t.Errorf("csim-grid stats report %d detections, result has %d", gstats.Detections, gres.NumDet)
		}
	}
	if _, _, err := faultsim.SimulateGrid(u, vs, faultsim.CsimGrid(2, 2)); err == nil {
		t.Error("csim-grid accepted two vector windows")
	}
	if plan := faultsim.PlanGrid(faultsim.JobShape{
		Gates: len(c.Gates), Faults: u.NumFaults(), Vectors: vs.Len(), MaxProcs: 4,
	}); plan.FaultShards < 1 || plan.FaultShards > 4 {
		t.Errorf("scheduler plan %v outside its budget", plan)
	}

	tu := faultsim.TransitionFaults(c)
	tsim, err := faultsim.New(tu, faultsim.CsimV())
	if err != nil {
		t.Fatal(err)
	}
	tres := tsim.Run(vs)
	if d := tres.Diff(faultsim.SimulateSerial(tu, vs)); d != "" {
		t.Errorf("transition csim vs serial:\n%s", d)
	}

	gen := faultsim.GenerateTests(u, faultsim.ATPGOptions{Seed: 3, RandomPreamble: 16})
	if gen.Vectors.Len() == 0 {
		t.Error("ATPG produced no vectors")
	}
}

func TestPublicAPIBenchIO(t *testing.T) {
	c, err := faultsim.ParseBench("tiny", "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := faultsim.WriteBench(&sb, c); err != nil {
		t.Fatal(err)
	}
	c2, err := faultsim.ReadBench("tiny2", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if c2.Stats().Gates != c.Stats().Gates {
		t.Error("bench round trip changed the circuit")
	}
}

func TestPublicAPIGenerate(t *testing.T) {
	c, err := faultsim.GenerateCircuit(faultsim.CircuitSpec{
		Name: "g", PIs: 4, POs: 4, DFFs: 4, Gates: 60, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Gates; got != 60 {
		t.Errorf("generated %d gates, want 60", got)
	}
	names := faultsim.BenchmarkNames()
	if len(names) == 0 || names[0] != "s27" {
		t.Errorf("BenchmarkNames = %v", names)
	}
}

func TestGoodSimFacade(t *testing.T) {
	c, err := faultsim.ParseBench("b", "INPUT(a)\nOUTPUT(z)\nq = DFF(a)\nz = BUFF(q)\n")
	if err != nil {
		t.Fatal(err)
	}
	gs := faultsim.NewGoodSim(c)
	vs, err := faultsim.ParseVectors("1\n0\n", 1)
	if err != nil {
		t.Fatal(err)
	}
	gs.Cycle(vs.Vecs[0])
	out := gs.Cycle(vs.Vecs[1])
	if out[0] != faultsim.SA1.StuckValue() { // logic.One via the facade constants
		t.Errorf("z = %v, want 1", out[0])
	}
}
