package service

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/iscas"
	"repro/internal/netlist"
)

// TestFaultShardJobsMergeToOracle runs every shard of a K-way split as
// its own job — exactly the coordinator's dispatch pattern — and checks
// the merged detections against the serial oracle, on both kernels: 40
// vectors are interpreted, 80 run compiled, and the job's flight record
// names the shard and the kernel.
func TestFaultShardJobsMergeToOracle(t *testing.T) {
	_, cl := startServer(t, Config{Workers: 2})
	ctx := ctxT(t)
	const k = 3
	ckt, err := iscas.Get("s344")
	if err != nil {
		t.Fatal(err)
	}
	for _, nvec := range []int{40, 80} {
		want := oracle(t, "s344", "stuck", nvec, 7)
		merged := faults.NewResult(faults.StuckCollapsed(ckt))
		for shard := 0; shard < k; shard++ {
			v, err := cl.Run(ctx, JobSpec{
				Circuit: "s344", Engine: "csim-grid",
				FaultShard: shard, FaultShards: k,
				Random: nvec, Seed: 7, ReturnDetections: true,
			}, time.Millisecond)
			if err != nil {
				t.Fatalf("shard %d: %v", shard, err)
			}
			if v.Status != StatusDone || v.Result == nil {
				t.Fatalf("shard %d: status %s, error %q", shard, v.Status, v.Error)
			}
			dv := v.Result.Detections
			if dv == nil {
				t.Fatalf("shard %d: ReturnDetections set but no detections payload", shard)
			}
			if dv.NumDetected() != v.Result.Detected || dv.NumPotOnly() != v.Result.PotOnly {
				t.Fatalf("shard %d: payload counts %d/%d disagree with result %d/%d",
					shard, dv.NumDetected(), dv.NumPotOnly(), v.Result.Detected, v.Result.PotOnly)
			}
			if v.Result.Workers != k || v.Result.Windows != 1 {
				t.Errorf("shard %d: shape %dx%d, want %dx1", shard, v.Result.Workers, v.Result.Windows, k)
			}
			part, err := dv.Result(faults.StuckCollapsed(ckt))
			if err != nil {
				t.Fatalf("shard %d: reconstruct: %v", shard, err)
			}
			merged = faults.MergeResults(merged, part)

			pm, err := cl.Debug(ctx, v.ID)
			if err != nil {
				t.Fatal(err)
			}
			prefix := fmt.Sprintf("shard %d of %d: ", shard, k)
			started, finished := false, false
			for _, ev := range pm.Events {
				if strings.HasPrefix(ev.Detail, prefix) {
					started = started || ev.Kind == "shard_start" && strings.Contains(ev.Detail, "compiled workers")
					finished = finished || ev.Kind == "shard_finish"
				}
			}
			if !started || !finished {
				t.Errorf("shard %d at %d vectors: no shard_start / shard_finish pair in %+v", shard, nvec, pm.Events)
			}
		}
		if diff := want.Diff(merged); diff != "" {
			t.Errorf("%d vectors: merged shard jobs differ from serial oracle:\n%s", nvec, diff)
		}
	}
}

// TestFaultShardSpecValidation rejects malformed shard coordinates and
// shard requests on non-grid engines.
func TestFaultShardSpecValidation(t *testing.T) {
	_, cl := startServer(t, Config{Workers: 1})
	ctx := ctxT(t)
	for name, spec := range map[string]JobSpec{
		"wrong_engine": {Circuit: "s27", Engine: "csim", FaultShards: 2},
		"shard_oob":    {Circuit: "s27", Engine: "csim-grid", FaultShards: 2, FaultShard: 2},
		"negative":     {Circuit: "s27", Engine: "csim-grid", FaultShards: -1},
		"index_no_of":  {Circuit: "s27", Engine: "csim-grid", FaultShard: 1},
		"two_circuits": {Circuit: "s27", BenchKey: "suite:s27"},
		"no_circuit":   {Engine: "csim"},
	} {
		_, err := cl.Submit(ctx, spec)
		var ae *APIError
		if !errors.As(err, &ae) || ae.StatusCode != 400 {
			t.Errorf("%s: want 400, got %v", name, err)
		}
	}
}

// TestBenchKeyReference covers the ship-once protocol: a bench_key for
// an uncached circuit draws the stable bench-key-miss 400; after one
// inline submission the key resolves and the job runs.
func TestBenchKeyReference(t *testing.T) {
	_, cl := startServer(t, Config{Workers: 1})
	ctx := ctxT(t)
	ckt, err := iscas.Get("s27")
	if err != nil {
		t.Fatal(err)
	}
	text := netlist.BenchString(ckt)
	key := InlineKey(text)

	_, err = cl.Submit(ctx, JobSpec{BenchKey: key, Engine: "csim", Random: 8, Seed: 1})
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != 400 {
		t.Fatalf("uncached bench_key: want 400, got %v", err)
	}
	if len(ae.Problems) != 1 || ae.Problems[0] != BenchKeyMissProblem {
		t.Fatalf("bench_key miss problems = %v, want [%s]", ae.Problems, BenchKeyMissProblem)
	}

	// Ship the netlist once; the cache now holds it under the same key.
	v, err := cl.Run(ctx, JobSpec{Bench: text, BenchName: "s27", Engine: "csim", Random: 8, Seed: 1}, time.Millisecond)
	if err != nil || v.Status != StatusDone {
		t.Fatalf("inline ship: %v / %+v", err, v)
	}

	v, err = cl.Run(ctx, JobSpec{BenchKey: key, Engine: "csim", Random: 8, Seed: 1}, time.Millisecond)
	if err != nil {
		t.Fatalf("bench_key run: %v", err)
	}
	if v.Status != StatusDone || v.Result == nil {
		t.Fatalf("bench_key run: status %s, error %q", v.Status, v.Error)
	}
	if !v.Result.CacheHit {
		t.Error("bench_key run did not count as a cache hit")
	}
	if v.Result.Detected != oracle(t, "s27", "stuck", 8, 1).NumDet {
		t.Errorf("bench_key run detected %d, oracle disagrees", v.Result.Detected)
	}
}
