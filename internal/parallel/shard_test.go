package parallel

import (
	"context"
	"testing"

	"repro/internal/csim"
	"repro/internal/faults"
	"repro/internal/iscas"
	"repro/internal/serial"
	"repro/internal/vectors"
)

// TestSimulateShardMergesToSerial is the distributed-tier contract:
// running every shard of a K-way partition independently (each with its
// own good-trace recording, exactly as remote workers do) and merging
// the results reproduces the serial oracle bit for bit.
func TestSimulateShardMergesToSerial(t *testing.T) {
	for _, tc := range []struct {
		circuit string
		model   string
		k       int
	}{
		{"s344", "stuck", 3},
		{"s344", "transition", 2},
		{"s526", "stuck", 4},
		{"s526", "transition", 1},
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
		vs := vectors.Random(ckt, 60, 1)
		want := serial.Simulate(u, vs)

		parts := make([]*faults.Result, tc.k)
		stats := make([]csim.Stats, tc.k)
		for k := 0; k < tc.k; k++ {
			parts[k], stats[k], err = SimulateShard(context.Background(), u, vs, ShardOptions{
				Shard: k, Of: tc.k, Config: csim.MV(),
			})
			if err != nil {
				t.Fatalf("%s/%s shard %d: %v", tc.circuit, tc.model, k, err)
			}
		}
		got := faults.MergeResults(parts...)
		if diff := want.Diff(got); diff != "" {
			t.Errorf("%s/%s K=%d: merged shards differ from serial:\n%s",
				tc.circuit, tc.model, tc.k, diff)
		}

		// The merged shard stats equal a local grid run's merged stats:
		// per-shard work is identical, only the placement differs.
		gridRes, gridStats, err := SimulateGrid(context.Background(), u, vs, GridOptions{
			FaultShards: tc.k, Config: csim.MV(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if diff := gridRes.Diff(got); diff != "" {
			t.Errorf("%s/%s: shards differ from local grid:\n%s", tc.circuit, tc.model, diff)
		}
		if merged := csim.MergeStats(stats...); merged != gridStats {
			t.Errorf("%s/%s K=%d: shard stats %+v != grid stats %+v",
				tc.circuit, tc.model, tc.k, merged, gridStats)
		}
	}
}

// TestSimulateShardEmptyPartition: more shards than faults yields empty
// partitions whose results merge as no-ops.
func TestSimulateShardEmptyPartition(t *testing.T) {
	ckt, err := iscas.Get("s27")
	if err != nil {
		t.Fatal(err)
	}
	u := faults.StuckCollapsed(ckt)
	vs := vectors.Random(ckt, 8, 1)
	k := u.NumFaults() + 3
	res, st, err := SimulateShard(context.Background(), u, vs, ShardOptions{Shard: k - 1, Of: k, Config: csim.MV()})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumDet != 0 {
		t.Fatalf("empty shard detected %d faults", res.NumDet)
	}
	if st != (csim.Stats{}) {
		t.Fatalf("empty shard has nonzero stats: %+v", st)
	}
}

// TestSimulateShardBounds rejects out-of-range coordinates.
func TestSimulateShardBounds(t *testing.T) {
	ckt, err := iscas.Get("s27")
	if err != nil {
		t.Fatal(err)
	}
	u := faults.StuckCollapsed(ckt)
	vs := vectors.Random(ckt, 4, 1)
	for _, bad := range []ShardOptions{
		{Shard: 0, Of: 0},
		{Shard: -1, Of: 2},
		{Shard: 2, Of: 2},
	} {
		bad.Config = csim.MV()
		if _, _, err := SimulateShard(context.Background(), u, vs, bad); err == nil {
			t.Errorf("ShardOptions %+v: want error, got nil", bad)
		}
	}
}
