package parallel

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/csim"
	"repro/internal/faults"
	"repro/internal/iscas"
	"repro/internal/vectors"
)

// TestGridMatchesSingleThreaded holds csim-P, the grid and K merged
// pinned shards to the single-threaded run at every K on both sides of
// MinVectorsCompiled: under it all three are the one interpreted runner,
// so their merged stats are equal too; from it on the grid and the
// shards run the compiled kernel.
func TestGridMatchesSingleThreaded(t *testing.T) {
	ctx := context.Background()
	c := testCircuit(t, 8201, 5, 4, 8, 90)
	for _, u := range []*faults.Universe{faults.StuckCollapsed(c), faults.Transition(c)} {
		for _, nv := range []int{40, 64, 100} {
			vs := vectors.Random(c, nv, int64(nv))
			single, err := csim.New(u, csim.MV())
			if err != nil {
				t.Fatal(err)
			}
			want := single.Run(vs)
			for _, k := range []int{1, 2, 3, 7} {
				tag := fmt.Sprintf("%d faults, %d vectors, K=%d", u.NumFaults(), nv, k)
				pres, pst, err := Simulate(u, vs, Options{Workers: k, Config: csim.MV()})
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, tag+" csim-P", want, pres)
				gres, gst, err := SimulateGrid(ctx, u, vs, GridOptions{FaultShards: k, Config: csim.MV()})
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, tag+" grid", want, gres)
				parts := make([]*faults.Result, k)
				stats := make([]csim.Stats, k)
				for s := range parts {
					parts[s], stats[s], err = SimulateShard(ctx, u, vs, ShardOptions{Shard: s, Of: k, Config: csim.MV()})
					if err != nil {
						t.Fatal(err)
					}
				}
				assertSameResult(t, tag+" shards", want, faults.MergeResults(parts...))
				if sst := csim.MergeStats(stats...); !RunsCompiled(nv) && (gst != pst || sst != pst) {
					t.Errorf("%s: csim-P stats %+v, grid %+v, shards %+v", tag, pst, gst, sst)
				}
			}
		}
	}
}

// TestGridAllISCAS is the bundled-circuit battery: on every suite
// circuit, both fault models, the two-shard grid must be bit-identical
// to the single-threaded run (itself pinned to the serial oracle by the
// harness and integration tests). Vector counts scale down with circuit
// size to keep the battery fast, which puts the large circuits on the
// interpreted runner and the rest on the compiled kernel.
func TestGridAllISCAS(t *testing.T) {
	for _, name := range iscas.Names() {
		c := iscas.MustGet(name)
		nvec := 100
		switch {
		case len(c.Gates) > 10000:
			nvec = 24
		case len(c.Gates) > 2000:
			nvec = 48
		}
		if testing.Short() && len(c.Gates) > 2000 {
			continue
		}
		vs := vectors.Random(c, nvec, 7)
		for _, u := range []*faults.Universe{faults.StuckCollapsed(c), faults.Transition(c)} {
			single, err := csim.New(u, csim.MV())
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := SimulateGrid(context.Background(), u, vs, GridOptions{FaultShards: 2, Config: csim.MV()})
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, fmt.Sprintf("%s, %d faults", name, u.NumFaults()), single.Run(vs), got)
		}
	}
}

// TestGridShapesDeterministic is the MergeStats scheduling-order
// regression test: for every shard count, repeated runs must merge to
// byte-identical Stats (MergeStats must not depend on goroutine
// scheduling), and the detections — including first-detection cycles —
// must be identical across all counts and to the single-threaded run.
// At 48 vectors the grid is interpreted; at 150 it runs the compiled
// kernel, whose memory counters alone may follow the schedule.
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
		for _, k := range []int{1, 2, 4, 7} {
			tag := fmt.Sprintf("%d vectors, K=%d", nv, k)
			var first csim.Stats
			for rep := 0; rep < 3; rep++ {
				res, st, err := SimulateGrid(context.Background(), u, vs, GridOptions{FaultShards: k, Config: csim.MV()})
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, tag, want, res)
				if rep == 0 {
					first = st
					continue
				}
				if RunsCompiled(nv) {
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
