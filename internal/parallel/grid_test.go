package parallel_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/compiled"
	"repro/internal/csim"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/iscas"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/serial"
	"repro/internal/vectors"
)

// The grid battery: what Partition and the scheduler's plans produce
// once internal/engine runs them, against the serial oracle.

// universes returns a suite circuit's stuck-at and transition universes.
func universes(circuit string) []*faults.Universe {
	c := iscas.MustGet(circuit)
	return []*faults.Universe{faults.StuckCollapsed(c), faults.Transition(c)}
}

// grid runs a whole csim-grid job on a budget of k processors.
func grid(t *testing.T, u *faults.Universe, vs *vectors.Set, k int, ob *obs.Observer) (*faults.Result, csim.Stats) {
	t.Helper()
	res, st, err := engine.Run(context.Background(), engine.CsimGrid, u, vs, engine.Options{Workers: k, Obs: ob})
	if err != nil {
		t.Fatal(err)
	}
	return res, st
}

// shards runs every pinned shard of an n-way split, each on a budget of
// workers, and merges them the way a coordinator does. nonEmpty counts
// the shards that held faults.
func shards(t *testing.T, u *faults.Universe, vs *vectors.Set, n, workers int) (res *faults.Result, st csim.Stats, nonEmpty int) {
	t.Helper()
	parts := make([]*faults.Result, n)
	stats := make([]csim.Stats, n)
	for k := range parts {
		var err error
		parts[k], stats[k], err = engine.Run(context.Background(), engine.CsimGrid, u, vs,
			engine.Options{Shard: k, Of: n, Workers: workers})
		if err != nil {
			t.Fatalf("shard %d of %d: %v", k, n, err)
		}
		if stats[k] != (csim.Stats{}) {
			nonEmpty++
		} else if parts[k].NumDet != 0 {
			t.Errorf("shard %d of %d: no work counted, %d detected", k, n, parts[k].NumDet)
		}
	}
	return faults.MergeResults(parts...), csim.MergeStats(stats...), nonEmpty
}

// csimC runs the whole universe on one thread of the kernel.
func csimC(t *testing.T, u *faults.Universe, vs *vectors.Set) csim.Stats {
	t.Helper()
	_, st, err := engine.Run(context.Background(), engine.CsimC, u, vs, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestGridMatchesSingleThreaded holds the grid and K merged pinned
// shards to the oracle at every K, from one vector through a half-empty
// word to several blocks, on both fault models; the evaluation counts are
// csim-C's whatever the split.
func TestGridMatchesSingleThreaded(t *testing.T) {
	for _, u := range universes("s298") {
		for _, nv := range []int{1, 8, 40, 63, 64, 100} {
			vs := vectors.Random(u.Circuit, nv, int64(nv))
			want, _ := serial.Simulate(context.Background(), u, vs)
			ref := csimC(t, u, vs)
			for _, k := range []int{1, 2, 3, 7} {
				tag := fmt.Sprintf("%d faults, %d vectors, K=%d", u.NumFaults(), nv, k)
				gres, gst := grid(t, u, vs, k, nil)
				assertSameResult(t, tag+" grid", want, gres)
				sres, sst, _ := shards(t, u, vs, k, 1)
				assertSameResult(t, tag+" shards", want, sres)
				for _, st := range []csim.Stats{gst, sst} {
					if st.Evals != ref.Evals || st.Passes != ref.Passes || st.Steps != ref.Steps || st.Detections != want.NumDet {
						t.Errorf("%s: stats %+v, csim-C %+v", tag, st, ref)
					}
				}
			}
		}
	}
}

// TestCompiledGridMatchesSerial: at every K — one worker, several, more
// than chunks, more than faults — the grid's detections are the
// oracle's, its counts csim-C's, and the worker count the scheduler's:
// one per chunk of 256 faults, bounded by the budget.
func TestCompiledGridMatchesSerial(t *testing.T) {
	for _, circuit := range []string{"s298", "s1494"} {
		for _, u := range universes(circuit) {
			vs := vectors.Random(u.Circuit, 64, 5)
			want, _ := serial.Simulate(context.Background(), u, vs)
			ref := csimC(t, u, vs)
			nf := u.NumFaults()
			for _, k := range []int{1, 2, 3, 7, nf/512 + 1, nf/256 + 2, nf + 5} {
				tag := fmt.Sprintf("%s/%d faults K=%d", circuit, nf, k)
				got, st := grid(t, u, vs, k, nil)
				assertSameResult(t, tag, want, got)
				if st.Evals != ref.Evals || st.Scheds != ref.Scheds || st.GoodEvals != ref.GoodEvals || st.Detections != want.NumDet {
					t.Errorf("%s: stats %+v, csim-C %+v", tag, st, ref)
				}
				if ek := engine.Workers(engine.CsimGrid, nf, engine.Options{Workers: k}); ek != compiled.Workers(k, nf) {
					t.Errorf("%s: %d workers reported", tag, ek)
				}
			}
		}
	}
}

// TestCompiledShardsMergeToWhole is the distributed-tier contract: every
// shard k of n run on its own, as remote workers do — n beyond the fault
// count leaves shards empty, and an empty shard is a no-op — merges to
// the whole-universe run and hence the oracle. Evaluation counts add up
// to csim-C's; GoodEvals adds up to one good trace per shard that had
// faults, because every node computes its own.
func TestCompiledShardsMergeToWhole(t *testing.T) {
	for _, u := range universes("s298") {
		for _, nv := range []int{8, 130} {
			vs := vectors.Random(u.Circuit, nv, 9)
			want, _ := serial.Simulate(context.Background(), u, vs)
			ref := csimC(t, u, vs)
			for _, n := range []int{1, 2, 3, 7, u.NumFaults() + 2} {
				tag := fmt.Sprintf("s298/%d faults, %d vectors, n=%d", u.NumFaults(), nv, n)
				got, sum, nonEmpty := shards(t, u, vs, n, 3)
				assertSameResult(t, tag, want, got)
				if sum.Evals != ref.Evals || sum.Scheds != ref.Scheds || sum.Detections != want.NumDet {
					t.Errorf("%s: merged stats %+v, csim-C %+v", tag, sum, ref)
				}
				if nonEmpty != min(n, u.NumFaults()) || sum.GoodEvals != nonEmpty*ref.GoodEvals {
					t.Errorf("%s: GoodEvals %d over %d non-empty shards, one trace is %d", tag, sum.GoodEvals, nonEmpty, ref.GoodEvals)
				}
			}
		}
	}
}

// TestStatsWorkersOneMatchSingle: csim-grid on a budget of one is csim-C
// — every counter, the memory high-water marks included, field for field.
func TestStatsWorkersOneMatchSingle(t *testing.T) {
	u := universes("s298")[0]
	vs := vectors.Random(u.Circuit, 150, 9)
	if _, got := grid(t, u, vs, 1, nil); got != csimC(t, u, vs) {
		t.Errorf("one-worker grid stats %+v, csim-C %+v", got, csimC(t, u, vs))
	}
}

// TestWorkerCountClamped: a budget far beyond what a two-fault universe
// offers runs one worker and still matches the oracle.
func TestWorkerCountClamped(t *testing.T) {
	c, err := netlist.ParseBenchString("tiny", "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n")
	if err != nil {
		t.Fatal(err)
	}
	u := faults.StuckCollapsed(c)
	vs := vectors.Random(c, 10, 1)
	want, _ := serial.Simulate(context.Background(), u, vs)
	got, _ := grid(t, u, vs, 64, nil)
	assertSameResult(t, "tiny, 64 procs", want, got)
	if k := engine.Workers(engine.CsimGrid, u.NumFaults(), engine.Options{Workers: 64}); k != 1 {
		t.Errorf("%d faults on a budget of 64: %d workers", u.NumFaults(), k)
	}
}

// TestGridAllISCAS is the bundled-circuit battery: on every suite
// circuit, both fault models, the two-worker grid must be bit-identical
// to the single-threaded csim-MV run (itself pinned to the serial oracle
// by the engine and integration tests). Vector counts scale down with
// circuit size to keep the battery fast, which puts the large circuits
// under one word.
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
		for _, u := range universes(name) {
			single, err := csim.New(u, csim.MV())
			if err != nil {
				t.Fatal(err)
			}
			got, _ := grid(t, u, vs, 2, nil)
			assertSameResult(t, fmt.Sprintf("%s, %d faults", name, u.NumFaults()), single.Run(vs), got)
		}
	}
}

// TestGridShapesDeterministic: for every worker count, repeated runs
// give identical detections and identical counts — the kernel's merge
// must not depend on goroutine scheduling. Its memory counters alone may:
// workers pull chunks off a counter, so which worker saw the longest
// state-difference list follows the schedule.
func TestGridShapesDeterministic(t *testing.T) {
	u := universes("s298")[0]
	for _, nv := range []int{150, 48} {
		vs := vectors.Random(u.Circuit, nv, 23)
		want, _ := serial.Simulate(context.Background(), u, vs)
		for _, k := range []int{1, 2, 4, 7} {
			tag := fmt.Sprintf("%d vectors, K=%d", nv, k)
			var first csim.Stats
			for rep := 0; rep < 3; rep++ {
				res, st := grid(t, u, vs, k, nil)
				assertSameResult(t, tag, want, res)
				st.PeakElems, st.CurElems, st.MemBytes = 0, 0, 0
				if rep == 0 {
					first = st
				} else if st != first {
					t.Errorf("%s rep %d: stats %+v, first run %+v", tag, rep, st, first)
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

// TestCompiledGridObserved pins what a grid run records: the scheduler's
// decision, one shard_start/shard_finish pair per worker whose details
// start "csim-grid shard <k>: " (benchmark/ parses them), a merge event,
// and the totals and worker count under "csim-grid." with no per-shard
// names; a pinned shard records one pair of its own and publishes under
// "csim-grid.shard<k>.".
func TestCompiledGridObserved(t *testing.T) {
	u := universes("s1494")[0]
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
	res, st := grid(t, u, vs, 3, ob)
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
	if count(events, "decide", "plan 3x1 ") != 1 || count(events, "merge", "csim-grid: 3 shards merged") != 1 {
		t.Errorf("no decide or merge event in %+v", events)
	}
	for name, want := range map[string]int64{
		"csim-grid.evals": int64(st.Evals), "csim-grid.good_evals": int64(st.GoodEvals),
		"csim-grid.detections": int64(res.NumDet), "csim-grid.fault_shards": 3,
		"sched.fault_shards": 3, "sched.max_procs": 3,
	} {
		if p, ok := reg.Get(name); !ok || p.Value != want {
			t.Errorf("%s = %+v, want %d", name, p, want)
		}
	}
	for _, p := range reg.Snapshot() {
		if strings.Contains(p.Name, ".shard") {
			t.Errorf("a whole grid job published %s", p.Name)
		}
	}

	ob = &obs.Observer{Metrics: obs.NewRegistry(), Flight: obs.NewFlightRecorder(0)}
	if _, _, err := engine.Run(context.Background(), engine.CsimGrid, u, vs, engine.Options{Shard: 1, Of: 2, Obs: ob}); err != nil {
		t.Fatal(err)
	}
	events = ob.Flight.Events()
	if count(events, "shard_start", "shard 1 of 2: ") != 1 || count(events, "shard_finish", "shard 1 of 2: ") != 1 || count(events, "decide", "") != 0 {
		t.Errorf("pinned shard events: %+v", events)
	}
	if _, ok := ob.Metrics.Get("csim-grid.shard1.evals"); !ok {
		t.Error("pinned shard published no csim-grid.shard1.evals")
	}
}

// TestCompiledGridHonoursContext: a cancelled context stops the grid and
// a pinned shard with the context's error.
func TestCompiledGridHonoursContext(t *testing.T) {
	u := universes("s1494")[0]
	vs := vectors.Random(u.Circuit, 128, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, opt := range []engine.Options{{Workers: 2}, {Shard: 0, Of: 2}} {
		if _, _, err := engine.Run(ctx, engine.CsimGrid, u, vs, opt); !errors.Is(err, context.Canceled) {
			t.Errorf("%+v on a cancelled context: %v", opt, err)
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
