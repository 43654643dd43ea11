package parallel

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/csim"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/vectors"
)

// TestDecidePlansFaultSplit is the table-driven scheduler test: from
// 64 vectors on the plan is compiled, with one worker per
// chunk of 256 faults up to the processor budget, and below that it is
// interpreted, with one shard per 64 faults up to the budget.
func TestDecidePlansFaultSplit(t *testing.T) {
	cases := []struct {
		name string
		sh   JobShape
		want Plan
	}{
		{"tiny circuit, huge vectors",
			JobShape{Gates: 100, Faults: 50, Vectors: 10000, MaxProcs: 8},
			Plan{FaultShards: 1, Compiled: true}},
		{"huge fault list, short vectors",
			JobShape{Gates: 50000, Faults: 100000, Vectors: 40, MaxProcs: 8},
			Plan{FaultShards: 8}},
		{"both large",
			JobShape{Gates: 50000, Faults: 100000, Vectors: 10000, MaxProcs: 8},
			Plan{FaultShards: 8, Compiled: true}},
		{"both large, two procs",
			JobShape{Gates: 50000, Faults: 100000, Vectors: 10000, MaxProcs: 2},
			Plan{FaultShards: 2, Compiled: true}},
		{"compiled, one chunk",
			JobShape{Gates: 1000, Faults: 256, Vectors: 64, MaxProcs: 8},
			Plan{FaultShards: 1, Compiled: true}},
		{"compiled, a second chunk of one fault",
			JobShape{Gates: 1000, Faults: 257, Vectors: 64, MaxProcs: 8},
			Plan{FaultShards: 2, Compiled: true}},
		{"compiled, chunks cap the budget",
			JobShape{Gates: 1000, Faults: 700, Vectors: 10000, MaxProcs: 8},
			Plan{FaultShards: 3, Compiled: true}},
		{"s5378 transition on two cores",
			JobShape{Gates: 2993, Faults: 5966, Vectors: 256, MaxProcs: 2},
			Plan{FaultShards: 2, Compiled: true}},
		{"one vector short of compiled",
			JobShape{Gates: 1000, Faults: 700, Vectors: 63, MaxProcs: 16},
			Plan{FaultShards: 10}},
		{"interpreted, fault floor caps the budget",
			JobShape{Gates: 1000, Faults: 150, Vectors: 40, MaxProcs: 8},
			Plan{FaultShards: 2}},
		{"tiny everything",
			JobShape{Gates: 20, Faults: 30, Vectors: 20, MaxProcs: 8},
			Plan{FaultShards: 1}},
		{"no faults",
			JobShape{Gates: 20, Faults: 0, Vectors: 100, MaxProcs: 8},
			Plan{FaultShards: 1, Compiled: true}},
		{"single proc",
			JobShape{Gates: 50000, Faults: 100000, Vectors: 10000, MaxProcs: 1},
			Plan{FaultShards: 1, Compiled: true}},
	}
	for _, tc := range cases {
		got, why := Explain(tc.sh)
		if got != tc.want {
			t.Errorf("%s: Decide(%+v) = %v, want %v", tc.name, tc.sh, got, tc.want)
		}
		if got.FaultShards > maxProcsOf(tc.sh) {
			t.Errorf("%s: plan %v exceeds the processor budget %d", tc.name, got, maxProcsOf(tc.sh))
		}
		if wantOK := fmt.Sprintf("compiled_ok=%t", tc.want.Compiled); !strings.Contains(why, wantOK) {
			t.Errorf("%s: reasoning %q lacks %s", tc.name, why, wantOK)
		}
		// The plan is the split the grid then runs, on the kernel it names.
		opt := GridOptions{FaultShards: got.FaultShards}
		if k := opt.EffectiveShards(tc.sh.Faults, tc.sh.Vectors); tc.sh.Faults > 0 && k != got.FaultShards {
			t.Errorf("%s: plan %v runs on %d shards", tc.name, got, k)
		}
		if RunsCompiled(tc.sh.Vectors) != got.Compiled {
			t.Errorf("%s: plan %v, grid compiled = %t", tc.name, got, !got.Compiled)
		}
	}
}

func maxProcsOf(sh JobShape) int {
	if sh.MaxProcs > 0 {
		return sh.MaxProcs
	}
	return 1 << 30 // NumCPU default; only budget-capped cases pin MaxProcs
}

// TestDecideDeterministic: the same shape must always get the same plan.
func TestDecideDeterministic(t *testing.T) {
	shapes := []JobShape{
		{Gates: 100, Faults: 50, Vectors: 10000, MaxProcs: 8},
		{Gates: 50000, Faults: 100000, Vectors: 10000, MaxProcs: 8},
		{Gates: 5000, Faults: 9000, Vectors: 496, MaxProcs: 16},
		{Gates: 5000, Faults: 9000, Vectors: 40, MaxProcs: 16},
		{Gates: 5000, Faults: 9000, Vectors: 496}, // MaxProcs from NumCPU, still stable in-process
	}
	for _, sh := range shapes {
		first := Decide(sh)
		for i := 0; i < 50; i++ {
			if got := Decide(sh); got != first {
				t.Fatalf("Decide(%+v) flapped: %v then %v", sh, first, got)
			}
		}
	}
}

// TestSimulateAuto runs the scheduler end to end: the planned grid must
// match the single-threaded detections and publish its decision gauges.
func TestSimulateAuto(t *testing.T) {
	c := testCircuit(t, 8600, 5, 4, 8, 90)
	u := faults.StuckCollapsed(c)
	vs := vectors.Random(c, 120, 3)
	single, err := csim.New(u, csim.MV())
	if err != nil {
		t.Fatal(err)
	}
	want := single.Run(vs)
	reg := obs.NewRegistry()
	ob := &obs.Observer{Metrics: reg}
	res, _, plan, err := SimulateAuto(context.Background(), u, vs, AutoOptions{MaxProcs: 4, Config: csim.MV(), Obs: ob})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "auto "+plan.String(), want, res)
	if plan.FaultShards < 1 || plan.FaultShards > 4 {
		t.Errorf("plan %v outside the MaxProcs=4 budget", plan)
	}
	if p, ok := reg.Get("sched.fault_shards"); !ok || p.Value != int64(plan.FaultShards) {
		t.Errorf("sched.fault_shards gauge = %+v, want %d", p, plan.FaultShards)
	}
	if p, ok := reg.Get("sched.max_procs"); !ok || p.Value != 4 {
		t.Errorf("sched.max_procs gauge = %+v, want 4", p)
	}
}
