package service

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/iscas"
)

// TestFaultShardJobsMergeToOracle runs every shard of a K-way split as
// its own job — exactly the coordinator's dispatch pattern — and checks
// the merged detections against the serial oracle, under either compiled
// engine's name, below and above one 64-vector word. Each shard holds
// under 256 faults, so its view reports the one kernel worker it ran on,
// and its flight record shows that worker's decide, shard_start /
// shard_finish pair and merge; only csim-grid results report a vector
// window.
func TestFaultShardJobsMergeToOracle(t *testing.T) {
	_, cl := startServer(t, Config{Workers: 2})
	ctx := ctxT(t)
	const k = 3
	ckt, err := iscas.Get("s344")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		engine  string
		nvec    int
		windows int
	}{{"csim-grid", 40, 1}, {"csim-grid", 80, 1}, {"csim-C", 80, 0}} {
		nvec := tc.nvec
		want := oracle(t, "s344", "stuck", nvec, 7)
		merged := faults.NewResult(faults.StuckCollapsed(ckt))
		for shard := 0; shard < k; shard++ {
			v, err := cl.Run(ctx, JobSpec{
				Circuit: "s344", Engine: tc.engine,
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
			part, err := dv.Result(faults.StuckCollapsed(ckt))
			if err != nil {
				t.Fatalf("shard %d: reconstruct: %v", shard, err)
			}
			if part.NumDet != v.Result.Detected || part.NumPotOnly() != v.Result.PotOnly {
				t.Fatalf("shard %d: payload counts %d/%d disagree with result %d/%d",
					shard, part.NumDet, part.NumPotOnly(), v.Result.Detected, v.Result.PotOnly)
			}
			if v.Result.Workers != 1 || v.Result.Windows != tc.windows {
				t.Errorf("%s shard %d: shape %dx%d, want 1x%d", tc.engine, shard, v.Result.Workers, v.Result.Windows, tc.windows)
			}
			merged = faults.MergeResults(merged, part)

			pm, err := cl.Debug(ctx, v.ID)
			if err != nil {
				t.Fatal(err)
			}
			var kernel []string
			for _, ev := range pm.Events {
				switch {
				case ev.Kind == "decide" && strings.HasPrefix(ev.Detail, "plan 1x1 "),
					(ev.Kind == "shard_start" || ev.Kind == "shard_finish") && strings.HasPrefix(ev.Detail, tc.engine+" shard 0: "),
					ev.Kind == "merge" && strings.HasPrefix(ev.Detail, tc.engine+": 1 shards merged"):
					kernel = append(kernel, ev.Kind)
				}
			}
			if fmt.Sprint(kernel) != "[decide shard_start shard_finish merge]" {
				t.Errorf("shard %d at %d vectors: kernel events %v in %+v", shard, nvec, kernel, pm.Events)
			}
		}
		if diff := want.Diff(merged); diff != "" {
			t.Errorf("%s, %d vectors: merged shard jobs differ from serial oracle:\n%s", tc.engine, nvec, diff)
		}
	}
}

// TestFaultShardSpecValidation rejects malformed shard coordinates and
// shard requests on engines that are not compiled.
func TestFaultShardSpecValidation(t *testing.T) {
	_, cl := startServer(t, Config{Workers: 1})
	ctx := ctxT(t)
	for name, spec := range map[string]JobSpec{
		"wrong_engine": {Circuit: "s27", Engine: "csim", FaultShards: 2},
		"shard_oob":    {Circuit: "s27", Engine: "csim-grid", FaultShards: 2, FaultShard: 2},
		"negative":     {Circuit: "s27", Engine: "csim-grid", FaultShards: -1},
		"index_no_of":  {Circuit: "s27", Engine: "csim-grid", FaultShard: 1},
		"two_circuits": {Circuit: "s27", Bench: iscas.S27Bench},
		"no_circuit":   {Engine: "csim"},
	} {
		_, err := cl.Submit(ctx, spec)
		var ae *APIError
		if !errors.As(err, &ae) || ae.StatusCode != 400 {
			t.Errorf("%s: want 400, got %v", name, err)
		}
	}
}
