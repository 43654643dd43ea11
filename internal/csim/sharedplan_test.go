package csim

import (
	"context"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/macro"
	"repro/internal/netlist"
	"repro/internal/serial"
	"repro/internal/vectors"
)

// TestSharedPlanConcurrentSims: a precompiled Plan injected via
// Config.Plan must be safe to share across concurrently running
// simulators — the service's compiled-circuit cache hands one Plan to
// every in-flight job on the same circuit. Under -race this pins the
// plan's immutability contract; the per-fault functional-table memo
// used to live on the Macro itself and raced exactly here.
func TestSharedPlanConcurrentSims(t *testing.T) {
	const sims = 8
	for _, tc := range testCircuits {
		c := mustParse(t, tc.name, tc.text)
		plan, err := macro.Extract(c, macro.DefaultMaxInputs)
		if err != nil {
			t.Fatalf("%s: Extract: %v", tc.name, err)
		}
		for _, uni := range []struct {
			name string
			u    *faults.Universe
		}{
			{"stuck", faults.StuckAll(c)},
			{"transition", faults.Transition(c)},
		} {
			vs := vectors.Random(c, 120, int64(len(tc.name)*31+5))
			want, _ := serial.Simulate(context.Background(), uni.u, vs)
			var wg sync.WaitGroup
			errs := make(chan string, sims)
			for i := 0; i < sims; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sim, err := New(uni.u, Config{SplitLists: true, Macros: true, Plan: plan})
					if err != nil {
						errs <- tc.name + "/" + uni.name + ": New: " + err.Error()
						return
					}
					got := sim.Run(vs)
					if d := want.Diff(got); d != "" {
						errs <- tc.name + "/" + uni.name + ": shared-plan sim disagrees with serial:\n" + d
					}
				}()
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Error(e)
			}
		}
	}
}

// TestSharedPlanRejectsForeignCircuit: Config.Plan for a different
// circuit must be rejected at construction, not misbehave at run time.
func TestSharedPlanRejectsForeignCircuit(t *testing.T) {
	a := mustParse(t, "s27", s27Bench)
	b, err := netlist.ParseBenchString("tiny", "INPUT(x)\nOUTPUT(z)\nz = NOT(x)\n")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := macro.Extract(b, macro.DefaultMaxInputs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(faults.StuckAll(a), Config{Macros: true, Plan: plan}); err == nil {
		t.Fatal("expected an error for a plan compiled from another circuit")
	}
}
