package parallel

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/compiled"
	"repro/internal/csim"
	"repro/internal/faults"
	"repro/internal/iscas"
	"repro/internal/obs"
	"repro/internal/serial"
	"repro/internal/vectors"
)

func universe(t *testing.T, circuit, model string) *faults.Universe {
	t.Helper()
	c, err := iscas.Get(circuit)
	if err != nil {
		t.Fatal(err)
	}
	if model == "transition" {
		return faults.Transition(c)
	}
	return faults.StuckCollapsed(c)
}

// csimC runs the whole universe on the csim-C engine's own entry point.
func csimC(t *testing.T, u *faults.Universe, vs *vectors.Set) (*faults.Result, csim.Stats) {
	t.Helper()
	sim, err := compiled.New(u)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Run(vs), sim.Stats()
}

// TestCompiledGridMatchesSerial: from 64 vectors on a grid runs the
// compiled kernel, and at every K — one worker,
// several, more than chunks, more than faults — its detections, first-detection vectors and potentials are
// the serial oracle's, and its evaluation counts are csim-C's.
func TestCompiledGridMatchesSerial(t *testing.T) {
	for _, circuit := range []string{"s298", "s1494"} {
		for _, model := range []string{"stuck", "transition"} {
			u := universe(t, circuit, model)
			vs := vectors.Random(u.Circuit, 64, 5)
			want := serial.Simulate(u, vs)
			_, ref := csimC(t, u, vs)
			nf := u.NumFaults()
			for _, k := range []int{1, 2, 3, 7, nf/512 + 1, nf/256 + 2, nf + 5} {
				tag := fmt.Sprintf("%s/%s K=%d", circuit, model, k)
				opt := GridOptions{FaultShards: k}
				if !RunsCompiled(vs.Len()) {
					t.Fatalf("%s: not on the compiled path", tag)
				}
				got, st, err := SimulateGrid(context.Background(), u, vs, opt)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				assertSameResult(t, tag, want, got)
				if st.Evals != ref.Evals || st.Scheds != ref.Scheds || st.GoodEvals != ref.GoodEvals || st.Detections != want.NumDet {
					t.Errorf("%s: stats %+v, csim-C %+v", tag, st, ref)
				}
				if ek := opt.EffectiveShards(nf, vs.Len()); ek != compiled.Workers(k, nf) {
					t.Errorf("%s: %d effective shards", tag, ek)
				}
			}
		}
	}
}

// TestCompiledShardsMergeToWhole: every shard k of n on the compiled
// kernel — n beyond the fault count leaves shards empty — merges to the
// whole-universe run and hence the oracle. Evaluation counts add up to
// csim-C's; GoodEvals adds up to one good trace per shard that had
// faults, because every node computes its own.
func TestCompiledShardsMergeToWhole(t *testing.T) {
	for _, model := range []string{"stuck", "transition"} {
		u := universe(t, "s298", model)
		vs := vectors.Random(u.Circuit, 130, 9)
		want := serial.Simulate(u, vs)
		_, ref := csimC(t, u, vs)
		for _, n := range []int{1, 2, 3, 7, u.NumFaults() + 2} {
			tag := fmt.Sprintf("s298/%s n=%d", model, n)
			parts := make([]*faults.Result, n)
			stats := make([]csim.Stats, n)
			nonEmpty := 0
			for k := range parts {
				var err error
				parts[k], stats[k], err = SimulateShard(context.Background(), u, vs, ShardOptions{Shard: k, Of: n, Workers: 3})
				if err != nil {
					t.Fatalf("%s shard %d: %v", tag, k, err)
				}
				if stats[k] != (csim.Stats{}) {
					nonEmpty++
				}
			}
			assertSameResult(t, tag, want, faults.MergeResults(parts...))
			sum := csim.MergeStats(stats...)
			if sum.Evals != ref.Evals || sum.Scheds != ref.Scheds || sum.Detections != want.NumDet {
				t.Errorf("%s: merged stats %+v, csim-C %+v", tag, sum, ref)
			}
			if nonEmpty != min(n, u.NumFaults()) || sum.GoodEvals != nonEmpty*ref.GoodEvals {
				t.Errorf("%s: GoodEvals %d over %d non-empty shards, one trace is %d", tag, sum.GoodEvals, nonEmpty, ref.GoodEvals)
			}
		}
	}
}

// TestCompiledGridThreshold straddles MinVectorsCompiled: at 63 vectors
// the grid is interpreted, from 64 on compiled, and on either side the
// result is the oracle's.
func TestCompiledGridThreshold(t *testing.T) {
	c := testCircuit(t, 8700, 5, 4, 8, 90)
	for _, u := range []*faults.Universe{faults.StuckCollapsed(c), faults.Transition(c)} {
		for _, nv := range []int{63, 64, 65, 130} {
			vs := vectors.Random(c, nv, int64(nv))
			want := serial.Simulate(u, vs)
			tag := fmt.Sprintf("%d faults, %d vectors", u.NumFaults(), nv)
			if got := RunsCompiled(nv); got != (nv >= 64) {
				t.Errorf("%s: compiled = %t", tag, got)
			}
			got, _, err := SimulateGrid(context.Background(), u, vs, GridOptions{FaultShards: 2, Config: csim.MV()})
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, tag, want, got)
			parts := make([]*faults.Result, 2)
			for k := range parts {
				var err error
				if parts[k], _, err = SimulateShard(context.Background(), u, vs, ShardOptions{Shard: k, Of: 2, Config: csim.MV()}); err != nil {
					t.Fatal(err)
				}
			}
			assertSameResult(t, tag+", shards", want, faults.MergeResults(parts...))
			plan := Decide(JobShape{Faults: u.NumFaults(), Vectors: nv, MaxProcs: 2})
			if plan.Compiled != (nv >= 64) {
				t.Errorf("%s: plan %v", tag, plan)
			}
		}
	}
}

// TestCompiledGridObserved pins what the compiled path records: one
// shard_start/shard_finish pair per worker (per pinned shard), whose
// details start the way the interpreted path's do, a merge event, and
// the merged totals and shard count under "csim-grid." with no
// per-shard names.
func TestCompiledGridObserved(t *testing.T) {
	u := universe(t, "s1494", "stuck")
	vs := vectors.Random(u.Circuit, 64, 1)
	count := func(events []obs.FlightEvent, kind, prefix string) int {
		n := 0
		for _, ev := range events {
			if ev.Kind == kind && strings.HasPrefix(ev.Detail, prefix) {
				n++
			}
		}
		return n
	}

	reg := obs.NewRegistry()
	ob := &obs.Observer{Metrics: reg, Flight: obs.NewFlightRecorder(0)}
	res, st, err := SimulateGrid(context.Background(), u, vs, GridOptions{FaultShards: 3, Obs: ob})
	if err != nil {
		t.Fatal(err)
	}
	events := ob.Flight.Events()
	simulated := 0
	for k := 0; k < 3; k++ {
		prefix := fmt.Sprintf("csim-grid shard %d: ", k)
		if count(events, "shard_start", prefix) != 1 || count(events, "shard_finish", prefix) != 1 {
			t.Errorf("worker %d: want one shard_start and one shard_finish %q, have %+v", k, prefix, events)
		}
		for _, ev := range events {
			var n, det int
			if ev.Kind == "shard_finish" && strings.HasPrefix(ev.Detail, prefix) {
				if _, err := fmt.Sscanf(ev.Detail, prefix+"%d faults, %d detected", &n, &det); err != nil {
					t.Errorf("shard_finish detail %q: %v", ev.Detail, err)
				}
				simulated += n
			}
		}
	}
	if simulated != u.NumFaults() {
		t.Errorf("workers report %d faults simulated, universe has %d", simulated, u.NumFaults())
	}
	if count(events, "merge", "csim-grid: 3 shards merged") != 1 {
		t.Errorf("no merge event in %+v", events)
	}
	for name, want := range map[string]int64{
		"csim-grid.evals": int64(st.Evals), "csim-grid.good_evals": int64(st.GoodEvals),
		"csim-grid.detections": int64(res.NumDet), "csim-grid.fault_shards": 3,
	} {
		if p, ok := reg.Get(name); !ok || p.Value != want {
			t.Errorf("%s = %+v, want %d", name, p, want)
		}
	}
	for _, p := range reg.Snapshot() {
		if strings.Contains(p.Name, ".shard") {
			t.Errorf("compiled path published %s", p.Name)
		}
	}

	ob = &obs.Observer{Metrics: obs.NewRegistry(), Flight: obs.NewFlightRecorder(0)}
	if _, _, err := SimulateShard(context.Background(), u, vs, ShardOptions{Shard: 1, Of: 2, Obs: ob}); err != nil {
		t.Fatal(err)
	}
	events = ob.Flight.Events()
	if count(events, "shard_start", "shard 1 of 2: ") != 1 || count(events, "shard_finish", "shard 1 of 2: ") != 1 {
		t.Errorf("pinned shard events: %+v", events)
	}
	if _, ok := ob.Metrics.Get("csim-grid.shard1.evals"); !ok {
		t.Error("pinned shard published no csim-grid.shard1.evals")
	}
}

// TestCompiledGridHonoursContext: a cancelled context stops the compiled
// grid and a compiled shard with the context's error.
func TestCompiledGridHonoursContext(t *testing.T) {
	u := universe(t, "s1494", "stuck")
	vs := vectors.Random(u.Circuit, 128, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := SimulateGrid(ctx, u, vs, GridOptions{FaultShards: 2}); !errors.Is(err, context.Canceled) {
		t.Errorf("SimulateGrid on a cancelled context: %v", err)
	}
	if _, _, err := SimulateShard(ctx, u, vs, ShardOptions{Shard: 0, Of: 2}); !errors.Is(err, context.Canceled) {
		t.Errorf("SimulateShard on a cancelled context: %v", err)
	}
	if _, _, _, err := SimulateAuto(ctx, u, vs, AutoOptions{MaxProcs: 2}); !errors.Is(err, context.Canceled) {
		t.Errorf("SimulateAuto on a cancelled context: %v", err)
	}
}
