package parallel

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/csim"
	"repro/internal/faults"
	"repro/internal/iscas"
	"repro/internal/obs"
	"repro/internal/vectors"
)

// TestVectorShardedMatchesSingleThreaded: csim-V2 at several window
// counts must produce a Result byte-identical to the single-threaded
// csim run — detections, first-detection vectors and potential
// detections — on generated sequential circuits.
func TestVectorShardedMatchesSingleThreaded(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		c := testCircuit(t, 8000+seed, 4, 4, 6, 70)
		u := faults.StuckCollapsed(c)
		vs := vectors.Random(c, 120, seed)
		single, err := csim.New(u, csim.MV())
		if err != nil {
			t.Fatal(err)
		}
		want := single.Run(vs)
		for _, w := range []int{1, 2, 3, 5, 8} {
			got, _, err := SimulateVectorSharded(u, vs, VOptions{Windows: w, Config: csim.MV()})
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, fmt.Sprintf("seed %d windows %d", seed, w), want, got)
		}
	}
}

// TestVectorShardedTransition repeats the differential check on the
// transition model, where both the flip-flop elements and the per-fault
// driver history must survive window boundaries.
func TestVectorShardedTransition(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		c := testCircuit(t, 8100+seed, 4, 3, 6, 60)
		u := faults.Transition(c)
		vs := vectors.Random(c, 100, seed)
		single, err := csim.New(u, csim.MV())
		if err != nil {
			t.Fatal(err)
		}
		want := single.Run(vs)
		for _, w := range []int{2, 4, 7} {
			got, _, err := SimulateVectorSharded(u, vs, VOptions{Windows: w, Config: csim.MV()})
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, fmt.Sprintf("seed %d windows %d", seed, w), want, got)
		}
	}
}

// TestGridMatchesSingleThreaded crosses both axes on generated circuits.
func TestGridMatchesSingleThreaded(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		c := testCircuit(t, 8200+seed, 5, 4, 8, 90)
		for _, model := range []string{"stuck", "transition"} {
			var u *faults.Universe
			if model == "stuck" {
				u = faults.StuckCollapsed(c)
			} else {
				u = faults.Transition(c)
			}
			vs := vectors.Random(c, 110, seed)
			single, err := csim.New(u, csim.MV())
			if err != nil {
				t.Fatal(err)
			}
			want := single.Run(vs)
			for _, shape := range [][2]int{{1, 1}, {1, 4}, {4, 1}, {2, 2}, {3, 5}} {
				got, _, err := SimulateGrid(context.Background(), u, vs, GridOptions{
					FaultShards: shape[0], Windows: shape[1], Config: csim.MV()})
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, fmt.Sprintf("%s seed %d shape %dx%d",
					model, seed, shape[0], shape[1]), want, got)
			}
		}
	}
}

// TestVectorShardedAllISCAS is the bundled-circuit battery: on every
// suite circuit, both fault models, csim-V2 and the 2-D grid must be
// bit-identical to the single-threaded run (itself pinned to the serial
// oracle by the harness and integration tests). Vector counts scale down
// with circuit size to keep the battery fast; window counts stay
// non-trivial.
func TestVectorShardedAllISCAS(t *testing.T) {
	for _, name := range iscas.Names() {
		c := iscas.MustGet(name)
		nvec, windows := 100, []int{2, 4}
		switch {
		case len(c.Gates) > 10000:
			nvec, windows = 24, []int{3}
		case len(c.Gates) > 2000:
			nvec, windows = 48, []int{2, 4}
		}
		if testing.Short() && len(c.Gates) > 2000 {
			continue
		}
		vs := vectors.Random(c, nvec, 7)
		for _, model := range []string{"stuck", "transition"} {
			var u *faults.Universe
			if model == "stuck" {
				u = faults.StuckCollapsed(c)
			} else {
				u = faults.Transition(c)
			}
			single, err := csim.New(u, csim.MV())
			if err != nil {
				t.Fatal(err)
			}
			want := single.Run(vs)
			for _, w := range windows {
				got, _, err := SimulateVectorSharded(u, vs, VOptions{Windows: w, Config: csim.MV()})
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, fmt.Sprintf("%s/%s/csim-V2.v%d", name, model, w), want, got)
			}
			got, _, err := SimulateGrid(context.Background(), u, vs, GridOptions{
				FaultShards: 2, Windows: 2, Config: csim.MV()})
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, fmt.Sprintf("%s/%s/csim-grid.2x2", name, model), want, got)
		}
	}
}

// TestVectorShardedOneWindowStats: a one-window csim-V2 run performs
// exactly the work of a one-partition csim-P run (same trace replay,
// same cycles), so every merged counter must match.
func TestVectorShardedOneWindowStats(t *testing.T) {
	c := testCircuit(t, 8300, 5, 4, 8, 100)
	u := faults.StuckCollapsed(c)
	vs := vectors.Random(c, 150, 9)
	_, pstats, err := Simulate(u, vs, Options{Workers: 1, Config: csim.MV()})
	if err != nil {
		t.Fatal(err)
	}
	_, vstats, err := SimulateVectorSharded(u, vs, VOptions{Windows: 1, Config: csim.MV()})
	if err != nil {
		t.Fatal(err)
	}
	if vstats != pstats {
		t.Errorf("one-window csim-V2 stats %+v, one-partition csim-P %+v", vstats, pstats)
	}
}

// TestGridShapesDeterministic is the MergeStats scheduling-order
// regression test: for every shard shape, repeated runs must merge to
// byte-identical Stats (MergeStats must not depend on goroutine
// scheduling), and the detections — including first-detection cycles —
// must be identical across all shapes and to the single-threaded run.
// At 48 vectors every shape is interpreted, so K×1 is held to that too;
// at 150 the K×1 shapes run the compiled kernel, whose memory counters
// alone may follow the schedule.
func TestGridShapesDeterministic(t *testing.T) {
	c := testCircuit(t, 8400, 6, 5, 9, 110)
	u := faults.StuckCollapsed(c)
	for _, nv := range []int{150, 48} {
		vs := vectors.Random(c, nv, 23)
		single, err := csim.New(u, csim.MV())
		if err != nil {
			t.Fatal(err)
		}
		want := single.Run(vs)
		for _, shape := range [][2]int{{1, 1}, {1, 4}, {4, 1}, {2, 2}, {7, 3}} {
			tag := fmt.Sprintf("%d vectors, shape %dx%d", nv, shape[0], shape[1])
			var first csim.Stats
			for rep := 0; rep < 3; rep++ {
				res, st, err := SimulateGrid(context.Background(), u, vs, GridOptions{
					FaultShards: shape[0], Windows: shape[1], Config: csim.MV()})
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, tag, want, res)
				if rep == 0 {
					first = st
					continue
				}
				if RunsCompiled(shape[1], nv) {
					// Compiled workers pull chunks off a counter: which
					// worker saw the longest state-difference list
					// depends on the schedule.
					st.PeakElems, st.CurElems, st.MemBytes = first.PeakElems, first.CurElems, first.MemBytes
				}
				if st != first {
					t.Errorf("%s rep %d: merged stats %+v, first run %+v", tag, rep, st, first)
				}
			}
		}
	}
}

// TestMergeStatsOrderInsensitive pins MergeStats itself: merging the same
// per-shard stats in any order must give the same totals, so the merged
// block cannot depend on worker completion order.
func TestMergeStatsOrderInsensitive(t *testing.T) {
	parts := []csim.Stats{
		{Evals: 10, Skips: 3, GoodEvals: 7, Scheds: 12, PeakElems: 40, CurElems: 2, Detections: 5, Macros: 9, MemBytes: 640},
		{Evals: 1, Skips: 30, GoodEvals: 2, Scheds: 4, PeakElems: 8, CurElems: 0, Detections: 1, Macros: 9, MemBytes: 128},
		{Evals: 100, Skips: 0, GoodEvals: 50, Scheds: 60, PeakElems: 200, CurElems: 11, Detections: 17, Macros: 12, MemBytes: 3200},
	}
	want := csim.MergeStats(parts...)
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, p := range perms {
		got := csim.MergeStats(parts[p[0]], parts[p[1]], parts[p[2]])
		if got != want {
			t.Errorf("permutation %v: merged %+v, want %+v", p, got, want)
		}
	}
}

// TestObservedVectorShardedRun attaches the observability layer to a
// csim-V2 run: per-window namespaces, merged "csim-V2." totals matching
// the returned stats, the windows/repaired gauges, the phase spans, and
// no detection perturbation.
func TestObservedVectorShardedRun(t *testing.T) {
	c := testCircuit(t, 8500, 5, 4, 6, 120)
	u := faults.StuckCollapsed(c)
	vs := vectors.Random(c, 80, 11)
	const w = 3

	plain, _, err := SimulateVectorSharded(u, vs, VOptions{Windows: w, Config: csim.MV()})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tr := obs.NewTracer(reg)
	ob := &obs.Observer{Metrics: reg, Tracer: tr}
	res, merged, err := SimulateVectorSharded(u, vs, VOptions{Windows: w, Config: csim.MV(), Obs: ob})
	if err != nil {
		t.Fatal(err)
	}
	if diff := plain.Diff(res); diff != "" {
		t.Fatalf("observability changed the merged result:\n%s", diff)
	}
	got, ok := csim.StatsFromRegistry(reg, V2Prefix)
	if !ok {
		t.Fatalf("no merged stats under %q", V2Prefix)
	}
	if got != merged {
		t.Fatalf("registry merged stats %+v != returned %+v", got, merged)
	}
	if p, ok := reg.Get(V2Prefix + "windows"); !ok || p.Value != w {
		t.Fatalf("windows gauge = %+v, want %d", p, w)
	}
	if _, ok := reg.Get(V2Prefix + "repaired_faults"); !ok {
		t.Fatalf("repaired_faults gauge missing")
	}
	for i := 0; i < w; i++ {
		if _, ok := csim.StatsFromRegistry(reg, WindowPrefix(i)); !ok {
			t.Fatalf("window %d published no metrics under %q", i, WindowPrefix(i))
		}
	}
	durs := tr.PhaseDurations()
	for _, phase := range []string{"good-sim", "window-plan", "fault-sim", "stitch", "merge"} {
		if _, ok := durs[phase]; !ok {
			t.Errorf("phase span %q missing (have %v)", phase, durs)
		}
	}
	for i := 0; i < w; i++ {
		if _, ok := durs[fmt.Sprintf("window%d", i)]; !ok {
			t.Errorf("window%d span missing", i)
		}
	}
}

// assertSameResult compares detections, first-detection vectors and
// potential detections.
func assertSameResult(t *testing.T, tag string, want, got *faults.Result) {
	t.Helper()
	if d := want.Diff(got); d != "" {
		t.Errorf("%s: detections differ:\n%s", tag, d)
		return
	}
	if !reflect.DeepEqual(want.DetectedAt, got.DetectedAt) {
		t.Errorf("%s: first-detection indices differ", tag)
	}
	if !reflect.DeepEqual(want.PotDetected, got.PotDetected) {
		t.Errorf("%s: potential detections differ", tag)
	}
}
