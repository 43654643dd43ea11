package service

import (
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/engine"
)

// FuzzJobSpec feeds raw bytes through the submit handler's JSON decode
// into normalize: each input ends in an error or in a spec that names
// exactly one circuit, a served engine and a listed model, exactly one
// vector source, a non-zero seed and, only on a compiled engine, shard
// coordinates in range — and that normalizes again unchanged. It never
// panics.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"bench_key":"sha256:9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08","engine":"csim-C","random":8}`,
		`{"circuit":"s27","random":4}`,
		`{"circuit":"s298","engine":"csim-grid","fault_shards":2,"fault_shard":1,"random":64,"seed":3,"return_detections":true,"timeout_ms":1000}`,
		`{"bench":"INPUT(a)\nOUTPUT(a)\n","bench_name":"wire","vectors":"1\n0\n","model":"transition","engine":"csim-C","windows":1}`,
		`{"circuit":"s27","engine":"csim","fault_shards":2,"random":4}`,
		`{"circuit":"s27","engine":"PROOFS","model":"transition","random":4}`,
		`{"circuit":"s27","fault_shard":-1,"random":-4,"seed":0,"timeout_ms":-1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp JobSpec
		if json.Unmarshal(data, &sp) != nil || sp.normalize() != nil {
			return
		}
		if (sp.Circuit != "") == (sp.Bench != "") {
			t.Fatalf("circuit %q and %d bytes of bench both set or both empty", sp.Circuit, len(sp.Bench))
		}
		info, ok := engine.ByName(sp.Engine)
		if !ok || !info.Served {
			t.Fatalf("engine %q is not served", sp.Engine)
		}
		if !slices.Contains(engine.Models, sp.Model) {
			t.Fatalf("model %q is not listed", sp.Model)
		}
		if (sp.Random > 0) == (sp.Vectors != "") {
			t.Fatalf("random %d and %d bytes of vectors: want exactly one", sp.Random, len(sp.Vectors))
		}
		if sp.Seed == 0 {
			t.Fatal("seed 0 survived normalize")
		}
		if sp.FaultShards != 0 || sp.FaultShard != 0 {
			if info.Kind != "compiled" {
				t.Fatalf("shard %d of %d on engine %s", sp.FaultShard, sp.FaultShards, sp.Engine)
			}
			if sp.FaultShard < 0 || sp.FaultShard >= sp.FaultShards {
				t.Fatalf("shard %d outside [0, %d)", sp.FaultShard, sp.FaultShards)
			}
		}
		again := sp
		if err := again.normalize(); err != nil || again != sp {
			t.Fatalf("a normalized spec normalizes to %+v, %v", again, err)
		}
	})
}
