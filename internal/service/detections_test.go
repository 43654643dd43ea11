package service

import (
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/iscas"
	"repro/internal/obs"
	"repro/internal/vectors"
)

// TestDetectionsViewValidation: a payload that does not describe a
// result over the universe is an error from Result, never a panic or a
// result with other counts.
func TestDetectionsViewValidation(t *testing.T) {
	ckt, err := iscas.Get("s27")
	if err != nil {
		t.Fatal(err)
	}
	u := faults.StuckCollapsed(ckt) // 26 faults
	for _, tc := range []struct {
		name string
		dv   DetectionsView
		ok   bool
	}{
		{"well formed", DetectionsView{Faults: 26, IDs: []int32{10, 12, 14, 20, 25}, At: []int32{3, 0, 3, 3, 0}, Pot: []int32{0, 2, 25}}, true},
		{"nothing detected", DetectionsView{Faults: 26}, true},
		{"smaller universe", DetectionsView{Faults: 25, IDs: []int32{10}, At: []int32{3}}, false},
		{"larger universe", DetectionsView{Faults: 27, IDs: []int32{10}, At: []int32{3}}, false},
		{"no size", DetectionsView{IDs: []int32{10}, At: []int32{3}}, false},
		{"vector missing", DetectionsView{Faults: 26, IDs: []int32{10, 12}, At: []int32{3}}, false},
		{"vector extra", DetectionsView{Faults: 26, IDs: []int32{10}, At: []int32{3, 4}}, false},
		{"descending", DetectionsView{Faults: 26, IDs: []int32{12, 10}, At: []int32{0, 3}}, false},
		{"repeated", DetectionsView{Faults: 26, IDs: []int32{10, 10}, At: []int32{3, 3}}, false},
		{"id past the universe", DetectionsView{Faults: 26, IDs: []int32{10, 26}, At: []int32{3, 3}}, false},
		{"negative id", DetectionsView{Faults: 26, IDs: []int32{-1, 10}, At: []int32{3, 3}}, false},
		{"negative vector", DetectionsView{Faults: 26, IDs: []int32{10, 12}, At: []int32{3, -1}}, false},
		{"pot past the universe", DetectionsView{Faults: 26, Pot: []int32{26}}, false},
		{"negative pot", DetectionsView{Faults: 26, Pot: []int32{-1}}, false},
	} {
		res, err := tc.dv.Result(u)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err %v, want ok %t", tc.name, err, tc.ok)
			continue
		}
		if !tc.ok {
			continue
		}
		if res.NumDet != len(tc.dv.IDs) {
			t.Errorf("%s: %d detected, want %d", tc.name, res.NumDet, len(tc.dv.IDs))
		}
		if back := NewDetectionsView(res); !sameView(back, &tc.dv) {
			t.Errorf("%s: round trip %+v, want %+v", tc.name, back, tc.dv)
		}
	}

	// A shard's reply names only faults of its shard.
	for _, tc := range []struct {
		name      string
		dv        DetectionsView
		shard, of int
		ok        bool
	}{
		{"even shard", DetectionsView{Faults: 26, IDs: []int32{10, 12, 14}, At: []int32{3, 0, 3}, Pot: []int32{0, 24}}, 0, 2, true},
		{"odd shard", DetectionsView{Faults: 26, IDs: []int32{1, 25}, At: []int32{3, 0}, Pot: []int32{7}}, 1, 2, true},
		{"third of three", DetectionsView{Faults: 26, IDs: []int32{2, 5, 23}, At: []int32{0, 0, 1}}, 2, 3, true},
		{"id of another shard", DetectionsView{Faults: 26, IDs: []int32{10, 13, 14}, At: []int32{3, 0, 3}}, 0, 2, false},
		{"pot of another shard", DetectionsView{Faults: 26, IDs: []int32{10}, At: []int32{3}, Pot: []int32{0, 3}}, 0, 2, false},
		{"id of another third", DetectionsView{Faults: 26, IDs: []int32{2, 4}, At: []int32{0, 0}}, 2, 3, false},
	} {
		if err := tc.dv.Check(26, tc.shard, tc.of); (err == nil) != tc.ok {
			t.Errorf("%s: shard %d of %d: err %v, want ok %t", tc.name, tc.shard, tc.of, err, tc.ok)
		}
	}
}

// sameView compares payloads; slices.Equal reads a nil list as an empty one.
func sameView(a, b *DetectionsView) bool {
	return a.Faults == b.Faults && slices.Equal(a.IDs, b.IDs) && slices.Equal(a.At, b.At) && slices.Equal(a.Pot, b.Pot)
}

// FuzzDetectionsView throws raw bytes at the payload decode a coordinator
// runs on every shard reply: whatever JSON decodes, Result either refuses
// it or rebuilds a result that detects exactly the listed faults, and a
// payload it accepts comes back unchanged from the packed form a
// retained job keeps it in. Of such a payload, Check accepts as the
// reply of shard k of a two- or three-way split exactly those whose
// detected and pot entries all lie in the shard.
// `go test ./internal/service -run '^$' -fuzz=FuzzDetectionsView` searches;
// testdata/fuzz/FuzzDetectionsView is the seed corpus.
func FuzzDetectionsView(f *testing.F) {
	ckt, err := iscas.Get("s298")
	if err != nil {
		f.Fatal(err)
	}
	u := faults.StuckCollapsed(ckt)
	res, _, err := engine.Run(context.Background(), engine.CsimC, u, vectors.Random(ckt, 64, 1), engine.Options{})
	if err != nil {
		f.Fatal(err)
	}
	real, err := json.Marshal(NewDetectionsView(res))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Fuzz(func(t *testing.T, data []byte) {
		var dv DetectionsView
		if json.Unmarshal(data, &dv) != nil {
			return
		}
		res, err := dv.Result(u)
		if err != nil {
			return
		}
		if res.NumDet != len(dv.IDs) {
			t.Fatalf("payload lists %d detected faults, result counts %d", len(dv.IDs), res.NumDet)
		}
		if back := packDetections(&dv).unpack(); !sameView(back, &dv) {
			t.Fatalf("packed round trip %+v, want %+v", back, dv)
		}
		n := 0
		for i, d := range res.Detected {
			if d != (res.DetectedAt[i] >= 0) {
				t.Fatalf("fault %d: detected %t at vector %d", i, d, res.DetectedAt[i])
			}
			if d {
				n++
			}
		}
		if n != res.NumDet {
			t.Fatalf("%d faults marked detected, NumDet %d", n, res.NumDet)
		}
		for of := 2; of <= 3; of++ {
			for k := range of {
				in := true
				for _, id := range slices.Concat(dv.IDs, dv.Pot) {
					in = in && int(id)%of == k
				}
				if err := dv.Check(u.NumFaults(), k, of); (err == nil) != in {
					t.Fatalf("shard %d of %d: Check says %v, entries all in the shard: %t", k, of, err, in)
				}
			}
		}
	})
}

// TestRetainedShardWeight weighs what a worker keeps per finished shard
// job — the job record, its spec and the shard's detections payload — on
// benchmark/'s fleet shape: 64 finished s5378 stuck-at jobs, each one
// half of a two-way fault split over 256 random vectors, read as
// HeapAlloc after runtime.GC() before and after. A worker keeps up to
// Config.Retained of these, so the weight is what that bound multiplies.
// A shard detects some 2,570 of the 9,914 faults; its job reads 7.8-8.3
// KB with the payload packed (packedDetections), 27-29 KB when it kept
// the view's three int32 slices, 2.5 KB without the payload, and read
// 45-47 KB when the payload carried a first-detection entry for every
// fault of the universe, the shard's or not.
func TestRetainedShardWeight(t *testing.T) {
	const jobs, maxPerJob = 64, 12 << 10
	s, cl := startServer(t, Config{Workers: 1})
	// Each job has a deadline of its own: under -race on a busy host 65
	// jobs can outlast one shared deadline while every one of them is
	// well within its own.
	run := func(i int) (JobView, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		return cl.Run(ctx, JobSpec{
			Circuit: "s5378", Engine: "csim-grid", Random: 256, Seed: 1,
			FaultShards: 2, FaultShard: i % 2, ReturnDetections: true,
		}, 0)
	}
	// The first job builds the cache entry and warms the connection; what
	// it keeps is counted in neither reading.
	if v, err := run(0); err != nil || v.Status != StatusDone {
		t.Fatalf("warm-up job: %v / %+v", err, v)
	}
	start := liveHeap()
	for i := 0; i < jobs; i++ {
		if v, err := run(i); err != nil || v.Status != StatusDone {
			t.Fatalf("job %d: %v / %+v", i, err, v)
		}
	}
	end := liveHeap()
	s.mu.Lock()
	kept := len(s.jobs)
	s.mu.Unlock()
	if kept != jobs+1 {
		t.Fatalf("%d jobs retained, want %d", kept, jobs+1)
	}
	runtime.KeepAlive(s)
	per := (end - start) / jobs
	t.Logf("a retained shard job weighs %d B", per)
	if per > maxPerJob {
		t.Errorf("a retained shard job weighs %d KB live, want at most %d KB", per>>10, maxPerJob>>10)
	}
}

// ringSlack returns a job's flight ring length and capacity. The ring is
// the recorder's own; Events takes its lock first, which orders this read
// after every Record.
func ringSlack(j *job) (n, capacity int) {
	j.flight.Events()
	buf := reflect.ValueOf(j.flight).Elem().FieldByName("buf")
	return buf.Len(), buf.Cap()
}

// TestRetainedJobWeight weighs a retained svc-tiny job — s298, csim-C,
// 64 random vectors, held until it ends — and requires every finished
// job's flight ring to hold no spare capacity: the ring is clipped when
// the job turns terminal, and the delivery recorded after that grows it
// by exactly one event. Unclipped, a two-worker job's ring of 12 events
// kept room for 16.
func TestRetainedJobWeight(t *testing.T) {
	const jobs, maxPerJob = 256, 3 << 10
	s, cl := startServer(t, Config{Workers: 1, EngineWorkers: 2})
	ctx := ctxT(t)
	spec := JobSpec{Circuit: "s298", Engine: "csim-C", Random: 64}
	if v, err := cl.Run(ctx, spec, 0); err != nil || v.Status != StatusDone {
		t.Fatalf("warm-up job: %v / %+v", err, v)
	}
	start := liveHeap()
	for i := 0; i < jobs; i++ {
		if v, err := cl.Run(ctx, spec, 0); err != nil || v.Status != StatusDone {
			t.Fatalf("job %d: %v / %+v", i, err, v)
		}
	}
	end := liveHeap()
	s.mu.Lock()
	retained := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		retained = append(retained, j)
	}
	s.mu.Unlock()
	if len(retained) != jobs+1 {
		t.Fatalf("%d jobs retained, want %d", len(retained), jobs+1)
	}
	for _, j := range retained {
		evs := j.flight.Events()
		if n, c := ringSlack(j); n != c || evs[len(evs)-1].Kind != "delivered" {
			t.Fatalf("job %s: ring of %d events has room for %d, last event %q", j.id, n, c, evs[len(evs)-1].Kind)
		}
	}
	per := (end - start) / jobs
	t.Logf("a retained svc-tiny job weighs %d B", per)
	if per > maxPerJob {
		t.Errorf("a retained svc-tiny job weighs %d B live, want at most %d KB", per, maxPerJob>>10)
	}
}

// TestCancelledQueuedJobRingClipped: a job cancelled while queued is
// terminal too, and its ring keeps no spare capacity either.
func TestCancelledQueuedJobRingClipped(t *testing.T) {
	j := newJob("q", JobSpec{}, &Compiled{}, false, time.Now())
	j.flight = obs.NewFlightRecorder()
	for _, kind := range []string{"admitted", "cache", "queued"} {
		j.flight.Record(kind, "")
	}
	j.requestCancel(time.Now())
	if n, c := ringSlack(j); n != 4 || c != n {
		t.Errorf("cancelled queued job: ring of %d events has room for %d, want 4 and 4", n, c)
	}
}
