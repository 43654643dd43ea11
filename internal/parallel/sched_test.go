package parallel

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/compiled"
	"repro/internal/obs"
)

// TestDecidePlansFaultSplit is the table-driven scheduler test: one
// worker per chunk of 256 faults up to the processor budget, whatever
// the vector count.
func TestDecidePlansFaultSplit(t *testing.T) {
	cases := []struct {
		name string
		sh   JobShape
		want int
	}{
		{"tiny circuit, huge vectors", JobShape{Gates: 100, Faults: 50, Vectors: 10000, MaxProcs: 8}, 1},
		{"huge fault list, short vectors", JobShape{Gates: 50000, Faults: 100000, Vectors: 40, MaxProcs: 8}, 8},
		{"both large", JobShape{Gates: 50000, Faults: 100000, Vectors: 10000, MaxProcs: 8}, 8},
		{"both large, two procs", JobShape{Gates: 50000, Faults: 100000, Vectors: 10000, MaxProcs: 2}, 2},
		{"one chunk", JobShape{Gates: 1000, Faults: 256, Vectors: 64, MaxProcs: 8}, 1},
		{"a second chunk of one fault", JobShape{Gates: 1000, Faults: 257, Vectors: 64, MaxProcs: 8}, 2},
		{"chunks cap the budget", JobShape{Gates: 1000, Faults: 700, Vectors: 10000, MaxProcs: 8}, 3},
		{"s5378 transition on two cores", JobShape{Gates: 2993, Faults: 5966, Vectors: 256, MaxProcs: 2}, 2},
		{"under one word", JobShape{Gates: 1000, Faults: 700, Vectors: 63, MaxProcs: 16}, 3},
		{"one vector", JobShape{Gates: 1000, Faults: 150, Vectors: 1, MaxProcs: 8}, 1},
		{"no faults", JobShape{Gates: 20, Faults: 0, Vectors: 100, MaxProcs: 8}, 1},
		{"single proc", JobShape{Gates: 50000, Faults: 100000, Vectors: 10000, MaxProcs: 1}, 1},
	}
	for _, tc := range cases {
		got, why := Explain(tc.sh)
		if got.FaultShards != tc.want || got != Decide(tc.sh) {
			t.Errorf("%s: Explain(%+v) = %v, want %dx1", tc.name, tc.sh, got, tc.want)
		}
		if got.FaultShards != compiled.Workers(tc.sh.MaxProcs, tc.sh.Faults) {
			t.Errorf("%s: plan %v is not the kernel's worker count", tc.name, got)
		}
		if want := fmt.Sprintf("procs=%d faults=%d", tc.sh.MaxProcs, tc.sh.Faults); !strings.Contains(why, want) {
			t.Errorf("%s: reasoning %q lacks %s", tc.name, why, want)
		}
	}
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

// TestDecideObservedPublishes: the verdict lands in the "sched.*" gauges
// and a decide flight event that carries the plan and its reasoning.
func TestDecideObservedPublishes(t *testing.T) {
	reg := obs.NewRegistry()
	ob := &obs.Observer{Metrics: reg, Flight: obs.NewFlightRecorder(0)}
	plan := DecideObserved(JobShape{Gates: 1000, Faults: 700, Vectors: 120, MaxProcs: 4}, ob)
	if plan.FaultShards != 3 {
		t.Errorf("plan %v, want 3x1", plan)
	}
	if p, ok := reg.Get("sched.fault_shards"); !ok || p.Value != 3 {
		t.Errorf("sched.fault_shards gauge = %+v, want 3", p)
	}
	if p, ok := reg.Get("sched.max_procs"); !ok || p.Value != 4 {
		t.Errorf("sched.max_procs gauge = %+v, want 4", p)
	}
	if evs := ob.Flight.Events(); len(evs) != 1 || evs[0].Kind != "decide" || !strings.HasPrefix(evs[0].Detail, "plan 3x1 (procs=4 faults=700") {
		t.Errorf("flight events %+v", evs)
	}
}
