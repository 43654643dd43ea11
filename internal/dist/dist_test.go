package dist

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/compiled"
	"repro/internal/csim"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/iscas"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/serial"
	"repro/internal/service"
	"repro/internal/vectors"
)

// shardPayloads runs every shard of a K-way split locally and wraps
// the results as the worker-facing payloads the coordinator merges.
func shardPayloads(t *testing.T, u *faults.Universe, vs *vectors.Set, k int) []*service.ResultView {
	t.Helper()
	out := make([]*service.ResultView, k)
	for shard := 0; shard < k; shard++ {
		res, st, err := engine.Run(context.Background(), engine.CsimGrid, u, vs, engine.Options{Shard: shard, Of: k})
		if err != nil {
			t.Fatalf("shard %d: %v", shard, err)
		}
		out[shard] = &service.ResultView{
			Detections: service.NewDetectionsView(res),
			Stats:      st,
		}
	}
	return out
}

// TestMergerShuffledAndDuplicateArrival is the merge-determinism
// property: any arrival order of the shard payloads, with duplicate
// deliveries interleaved, merges to the same result — the serial
// oracle — and duplicates are dropped by the idempotent slot dedup.
func TestMergerShuffledAndDuplicateArrival(t *testing.T) {
	ckt, err := iscas.Get("s526")
	if err != nil {
		t.Fatal(err)
	}
	u := faults.StuckCollapsed(ckt)
	vs := vectors.Random(ckt, 50, 9)
	want, _ := serial.Simulate(context.Background(), u, vs)
	const k = 5
	payloads := shardPayloads(t, u, vs, k)

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		order := rng.Perm(k)
		m := newMerger(k)
		for i, shard := range order {
			kept, err := m.add(shard, payloads[shard])
			if err != nil {
				t.Fatal(err)
			}
			if !kept {
				t.Fatalf("trial %d: first delivery of shard %d rejected", trial, shard)
			}
			// A duplicate delivery of an already-accepted shard (the
			// re-queued copy's original worker limping in late) is dropped.
			dup := order[rng.Intn(i+1)]
			kept, err = m.add(dup, payloads[dup])
			if err != nil {
				t.Fatal(err)
			}
			if kept {
				t.Fatalf("trial %d: duplicate of shard %d was merged twice", trial, dup)
			}
		}
		if m.complete() != k {
			t.Fatalf("trial %d: %d/%d slots filled", trial, m.complete(), k)
		}
		got, _, err := m.merge(u)
		if err != nil {
			t.Fatal(err)
		}
		if diff := want.Diff(got); diff != "" {
			t.Errorf("trial %d (order %v): merged result differs from oracle:\n%s", trial, order, diff)
		}
	}
}

// TestMergerRejectsPayloadlessShard: a shard view without detections
// cannot be merged.
func TestMergerRejectsPayloadlessShard(t *testing.T) {
	m := newMerger(2)
	if _, err := m.add(0, &service.ResultView{}); err == nil {
		t.Error("add accepted a payloadless shard view")
	}
	if _, err := m.add(5, &service.ResultView{Detections: &service.DetectionsView{}}); err == nil {
		t.Error("add accepted an out-of-range shard index")
	}
}

// startWorker brings up one worker csimd node on a loopback port.
func startWorker(t *testing.T) *service.Server {
	t.Helper()
	s := service.New(service.Config{Addr: "127.0.0.1:0", Workers: 2})
	if err := s.Start(); err != nil {
		t.Fatalf("worker Start: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// startCluster brings up n workers, a coordinator over them, and the
// coordinator-fronting server, returning the client plus the
// coordinator and its metrics registry for assertions.
func startCluster(t *testing.T, n int, tune func(*Config)) (*service.Client, *Coordinator, *obs.Registry) {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		addrs[i] = "http://" + startWorker(t).Addr()
	}
	reg := obs.NewRegistry()
	cfg := Config{
		Workers:       addrs,
		ProbeInterval: 20 * time.Millisecond,
		ShardTimeout:  30 * time.Second,
		Poll:          2 * time.Millisecond,
		Obs:           &obs.Observer{Metrics: reg},
	}
	if tune != nil {
		tune(&cfg)
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	front := service.New(service.Config{Addr: "127.0.0.1:0", Workers: 4, Runner: coord, Obs: cfg.Obs})
	if err := front.Start(); err != nil {
		t.Fatalf("coordinator Start: %v", err)
	}
	t.Cleanup(func() { _ = front.Close() })
	return service.NewClient("http://" + front.Addr()), coord, reg
}

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestDistributedMatchesSerialOracle is the acceptance contract: a
// coordinator over two workers produces results bit-identical to the
// serial oracle on bundled circuits, for both fault models.
func TestDistributedMatchesSerialOracle(t *testing.T) {
	cl, _, _ := startCluster(t, 2, nil)
	ctx := ctxT(t)
	for _, tc := range []struct {
		circuit, model string
	}{
		{"s344", "stuck"},
		{"s344", "transition"},
		{"s1488", "stuck"},
		{"s1488", "transition"},
	} {
		ckt, err := iscas.Get(tc.circuit)
		if err != nil {
			t.Fatal(err)
		}
		var u *faults.Universe
		if tc.model == "stuck" {
			u = faults.StuckCollapsed(ckt)
		} else {
			u = faults.Transition(ckt)
		}
		want, _ := serial.Simulate(context.Background(), u, vectors.Random(ckt, 60, 11))

		v, err := cl.Run(ctx, service.JobSpec{
			Circuit: tc.circuit, Model: tc.model, Engine: "csim-grid",
			Random: 60, Seed: 11, ReturnDetections: true,
		}, 2*time.Millisecond)
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.circuit, tc.model, err)
		}
		if v.Status != service.StatusDone || v.Result == nil {
			t.Fatalf("%s/%s: status %s, error %q", tc.circuit, tc.model, v.Status, v.Error)
		}
		if v.DistPhase != "done" {
			t.Errorf("%s/%s: dist_phase %q, want done", tc.circuit, tc.model, v.DistPhase)
		}
		got, err := v.Result.Detections.Result(u)
		if err != nil {
			t.Fatal(err)
		}
		if diff := want.Diff(got); diff != "" {
			t.Errorf("%s/%s: distributed result differs from serial:\n%s", tc.circuit, tc.model, diff)
		}
		if v.Result.Detected != want.NumDet || v.Result.PotOnly != want.NumPotOnly() {
			t.Errorf("%s/%s: counts %d/%d, oracle %d/%d",
				tc.circuit, tc.model, v.Result.Detected, v.Result.PotOnly, want.NumDet, want.NumPotOnly())
		}
	}
}

// TestDistributedStatsMatchLocalGrid: the merged worker stats count the
// work of a local grid run of the same K — distribution moves the work,
// it doesn't change it — except that every shard computes its own good
// trace, and the memory counters follow the placement.
func TestDistributedStatsMatchLocalGrid(t *testing.T) {
	cl, _, _ := startCluster(t, 2, nil)
	ctx := ctxT(t)
	ckt, err := iscas.Get("s526")
	if err != nil {
		t.Fatal(err)
	}
	u := faults.StuckCollapsed(ckt)
	vs := vectors.Random(ckt, 40, 3)

	const k = 3
	v, err := cl.Run(ctx, service.JobSpec{
		Circuit: "s526", Engine: "csim-grid", Workers: k,
		Random: 40, Seed: 3,
	}, 2*time.Millisecond)
	if err != nil || v.Status != service.StatusDone {
		t.Fatalf("distributed run: %v / %+v", err, v)
	}
	_, want, err := engine.Run(context.Background(), engine.CsimGrid, u, vs, engine.Options{Workers: k})
	if err != nil {
		t.Fatal(err)
	}
	got := v.Result.Stats
	want.GoodEvals *= k
	got.PeakElems, got.CurElems, got.MemBytes = want.PeakElems, want.CurElems, want.MemBytes
	if got != want {
		t.Errorf("distributed stats %+v, local grid stats with %d traces %+v", got, k, want)
	}
	if v.Result.Workers != k || v.Result.Windows != 1 {
		t.Errorf("distributed shape %dx%d, want %dx1", v.Result.Workers, v.Result.Windows, k)
	}
}

// TestDistributedInlineBenchShipsOnce: an inline netlist travels to
// each worker at most once; subsequent shards reference the cache key.
func TestDistributedInlineBenchShipsOnce(t *testing.T) {
	cl, coord, _ := startCluster(t, 2, nil)
	ctx := ctxT(t)
	ckt, err := iscas.Get("s298")
	if err != nil {
		t.Fatal(err)
	}
	text := netlist.BenchString(ckt)
	u := faults.StuckCollapsed(ckt)
	want, _ := serial.Simulate(context.Background(), u, vectors.Random(ckt, 30, 5))

	for run := 0; run < 2; run++ {
		v, err := cl.Run(ctx, service.JobSpec{
			Bench: text, BenchName: "s298", Engine: "csim-grid",
			Workers: 4, Random: 30, Seed: 5, ReturnDetections: true,
		}, 2*time.Millisecond)
		if err != nil || v.Status != service.StatusDone {
			t.Fatalf("run %d: %v / status %s error %q", run, err, v.Status, v.Error)
		}
		got, err := v.Result.Detections.Result(u)
		if err != nil {
			t.Fatal(err)
		}
		if diff := want.Diff(got); diff != "" {
			t.Errorf("run %d: inline distributed result differs:\n%s", run, diff)
		}
	}
	key := service.InlineKey(text)
	shippedSomewhere := false
	for _, w := range coord.reg.workers {
		if w.benchShipped(key) {
			shippedSomewhere = true
		}
	}
	if !shippedSomewhere {
		t.Error("no worker has the inline circuit's bench key marked shipped")
	}
}

// TestWorkerKillMidJobRequeues is the fault-tolerance acceptance test:
// with a shard pinned in flight on a specific worker, killing that
// worker mid-job must re-queue its shards to the survivor and still
// finish with the oracle's exact result. The job is sized for the
// compiled kernel: each of the six s5378 shards packs its own 1024-cycle
// good trace and runs some 750 faults, tens of milliseconds against the
// 1 ms the loop below takes to see it in flight. The oracle is
// single-threaded csim-MV; serial takes minutes here.
func TestWorkerKillMidJobRequeues(t *testing.T) {
	victim := startWorker(t)
	survivor := startWorker(t)
	reg := obs.NewRegistry()
	coord, err := New(Config{
		Workers:           []string{"http://" + victim.Addr(), "http://" + survivor.Addr()},
		ProbeInterval:     20 * time.Millisecond,
		ShardTimeout:      30 * time.Second,
		Poll:              2 * time.Millisecond,
		PerWorkerInflight: 2,
		MaxAttempts:       4,
		Obs:               &obs.Observer{Metrics: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	front := service.New(service.Config{Addr: "127.0.0.1:0", Workers: 2, Runner: coord, Obs: coord.ob})
	if err := front.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = front.Close() })
	cl := service.NewClient("http://" + front.Addr())
	ctx := ctxT(t)

	ckt, err := iscas.Get("s5378")
	if err != nil {
		t.Fatal(err)
	}
	u := faults.StuckCollapsed(ckt)
	single, err := csim.New(u, csim.MV())
	if err != nil {
		t.Fatal(err)
	}
	want := single.Run(vectors.Random(ckt, 1024, 13))

	jv, err := cl.Submit(ctx, service.JobSpec{
		Circuit: "s5378", Engine: "csim-grid", Workers: 6,
		Random: 1024, Seed: 13, ReturnDetections: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Kill the victim the moment it holds an in-flight shard.
	deadline := time.Now().Add(30 * time.Second)
	for {
		coord.reg.mu.Lock()
		busy := coord.reg.inflight[0] > 0
		coord.reg.mu.Unlock()
		if busy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim worker never received a shard")
		}
		time.Sleep(time.Millisecond)
	}
	_ = victim.Close()

	v, err := cl.Wait(ctx, jv.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != service.StatusDone || v.Result == nil {
		t.Fatalf("job after worker kill: status %s, error %q", v.Status, v.Error)
	}
	got, err := v.Result.Detections.Result(u)
	if err != nil {
		t.Fatal(err)
	}
	if diff := want.Diff(got); diff != "" {
		t.Errorf("post-kill result differs from the csim-MV oracle:\n%s", diff)
	}
	if p, ok := reg.Get("dist.shards_requeued"); !ok || p.Value < 1 {
		t.Errorf("dist.shards_requeued = %+v, want >= 1", p)
	}
}

// TestFleetShardsAreCompiled: an unpinned job through a coordinator is
// planned K×1 and every worker runs its shard's fault IDs on the
// compiled kernel. The merged result is the
// oracle's on both fault models — the serial oracle on s298 and s1494,
// single-threaded csim-MV on s5378, where serial takes a minute — and
// the merged stats say what ran: csim-C's evaluation counts, and one
// good trace per worker, since each computes its own.
func TestFleetShardsAreCompiled(t *testing.T) {
	cl, _, _ := startCluster(t, 2, nil)
	ctx := ctxT(t)
	for _, circuit := range []string{"s298", "s1494", "s5378"} {
		for _, model := range []string{"stuck", "transition"} {
			tag := circuit + "/" + model
			ckt, err := iscas.Get(circuit)
			if err != nil {
				t.Fatal(err)
			}
			u := faults.StuckCollapsed(ckt)
			if model == "transition" {
				u = faults.Transition(ckt)
			}
			vs := vectors.Random(ckt, 64, 11)
			var want *faults.Result
			if circuit == "s5378" {
				single, err := csim.New(u, csim.MV())
				if err != nil {
					t.Fatal(err)
				}
				want = single.Run(vs)
			} else {
				want, _ = serial.Simulate(context.Background(), u, vs)
			}
			ref, err := compiled.New(u)
			if err != nil {
				t.Fatal(err)
			}
			ref.Run(vs)

			v, err := cl.Run(ctx, service.JobSpec{
				Circuit: circuit, Model: model, Engine: "csim-grid",
				Random: 64, Seed: 11, ReturnDetections: true,
			}, 2*time.Millisecond)
			if err != nil || v.Status != service.StatusDone || v.Result == nil {
				t.Fatalf("%s: %v / %+v", tag, err, v)
			}
			// Four dispatch slots; every circuit here has more than one
			// chunk of 256 faults.
			k := compiled.Workers(4, u.NumFaults())
			if v.Result.Workers != k || v.Result.Windows != 1 {
				t.Errorf("%s: shape %dx%d, want %dx1", tag, v.Result.Workers, v.Result.Windows, k)
			}
			got, err := v.Result.Detections.Result(u)
			if err != nil {
				t.Fatal(err)
			}
			if diff := want.Diff(got); diff != "" {
				t.Errorf("%s: distributed result differs from the oracle:\n%s", tag, diff)
			}
			for i := range want.DetectedAt {
				if want.DetectedAt[i] != got.DetectedAt[i] || want.PotDetected[i] != got.PotDetected[i] {
					t.Errorf("%s: fault %d detected at %d (potential %t), oracle %d (%t)", tag, i,
						got.DetectedAt[i], got.PotDetected[i], want.DetectedAt[i], want.PotDetected[i])
					break
				}
			}
			st, one := v.Result.Stats, ref.Stats()
			if st.Evals != one.Evals || st.Scheds != one.Scheds || st.Detections != want.NumDet {
				t.Errorf("%s: merged stats %+v, csim-C %+v", tag, st, one)
			}
			if st.GoodEvals != k*one.GoodEvals {
				t.Errorf("%s: merged GoodEvals %d, want %d shards x one trace of %d", tag, st.GoodEvals, k, one.GoodEvals)
			}
		}
	}
}

// TestHealthGaugeConcurrentFlips: dist.workers_healthy equals the number
// of healthy workers once concurrent probers have settled, whichever way
// their transitions interleaved.
func TestHealthGaugeConcurrentFlips(t *testing.T) {
	const n = 8
	reg := obs.NewRegistry()
	r := &registry{
		wakeCh:   make(chan struct{}, 1),
		gHealthy: reg.Gauge("dist.workers_healthy"),
	}
	for i := 0; i < n; i++ {
		r.workers = append(r.workers, &worker{idx: i, gHealthy: reg.Gauge(fmt.Sprintf("dist.worker%d.healthy", i))})
	}
	flipAll := func(healthy func(i int) bool) {
		var wg sync.WaitGroup
		for i, w := range r.workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.setHealth(w, healthy(i), nil)
			}()
		}
		wg.Wait()
	}
	for round := 0; round < 200; round++ {
		for _, tc := range []struct {
			healthy func(i int) bool
			want    int64
		}{
			{func(int) bool { return true }, n},
			{func(i int) bool { return i%2 == 0 }, n / 2},
			{func(int) bool { return false }, 0},
		} {
			flipAll(tc.healthy)
			if got := r.gHealthy.Value(); got != tc.want {
				t.Fatalf("round %d: dist.workers_healthy = %d with %d workers healthy", round, got, tc.want)
			}
		}
	}
}
