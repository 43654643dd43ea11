package dist

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/compiled"
	"repro/internal/csim"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/iscas"
	"repro/internal/iscas/iscastest"
	"repro/internal/obs"
	"repro/internal/serial"
	"repro/internal/service"
	"repro/internal/vectors"
)

var update = flag.Bool("update", false, "rewrite testdata/fleet_oracle.json from the serial and csim-MV oracles")

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
// property: RunJob's shard goroutines each write their own slot, in
// whatever order they finish, and the merge writes the K disjoint
// payloads into one result, which must be the serial oracle's in shard
// order and in reverse.
func TestMergerShuffledAndDuplicateArrival(t *testing.T) {
	ckt, err := iscas.Get("s526")
	if err != nil {
		t.Fatal(err)
	}
	u := faults.StuckCollapsed(ckt)
	vs := vectors.Random(ckt, 50, 9)
	want, _ := serial.Simulate(context.Background(), u, vs)
	views := shardPayloads(t, u, vs, 5)
	for _, order := range []string{"shard order", "reverse"} {
		got, _ := mergeShards(u, views)
		if diff := want.Diff(got); diff != "" {
			t.Errorf("%s: merged result differs from oracle:\n%s", order, diff)
		}
		slices.Reverse(views)
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

// submit POSTs spec to cl's server as a new job, named by ctx's
// correlation ID if it carries one, and returns the queued view.
func submit(ctx context.Context, cl *service.Client, spec service.JobSpec) (service.JobView, error) {
	var v service.JobView
	body, err := json.Marshal(spec)
	if err != nil {
		return v, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cl.BaseURL+"/api/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return v, err
	}
	if id := obs.JobIDFrom(ctx); id != "" {
		req.Header.Set(service.JobIDHeader, id)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		return v, fmt.Errorf("POST /api/v1/jobs: %s: %s", resp.Status, msg)
	}
	return v, json.NewDecoder(resp.Body).Decode(&v)
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
		if got := distPhases(t, cl, v.ID); !slices.Equal(got, wantPhases) {
			t.Errorf("%s/%s: dist_phase events %q, want %q", tc.circuit, tc.model, got, wantPhases)
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

// wantPhases are the dist_phase event details of a fleet job that ends
// done, in order.
var wantPhases = []string{"coordinator phase pending", "coordinator phase dispatched", "coordinator phase merging", "coordinator phase done"}

// distPhases returns the details of job id's dist_phase flight events,
// oldest first.
func distPhases(t *testing.T, cl *service.Client, id string) []string {
	t.Helper()
	pm, err := cl.Debug(ctxT(t), id)
	if err != nil {
		t.Fatalf("debug %s: %v", id, err)
	}
	var out []string
	for _, ev := range pm.Events {
		if ev.Kind == "dist_phase" {
			out = append(out, ev.Detail)
		}
	}
	return out
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

// benchLog is the coordinator's transport to its workers, keeping the
// inline netlist each shard submission carried.
type benchLog struct {
	mu      sync.Mutex
	benches []string
}

func (l *benchLog) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodPost && r.Header.Get(service.JobIDHeader) != "" {
		body, err := r.GetBody()
		if err != nil {
			return nil, err
		}
		var spec service.JobSpec
		if err := json.NewDecoder(body).Decode(&spec); err != nil {
			return nil, err
		}
		l.mu.Lock()
		l.benches = append(l.benches, spec.Bench)
		l.mu.Unlock()
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestDistributedInlineBench: an inline netlist travels with every shard
// submission, and the merged result matches the serial oracle on every
// run.
func TestDistributedInlineBench(t *testing.T) {
	log := &benchLog{}
	cl, _, _ := startCluster(t, 2, func(cfg *Config) {
		cfg.HTTPClient = &http.Client{Transport: log}
	})
	ctx := ctxT(t)
	ckt, err := iscas.Get("s298")
	if err != nil {
		t.Fatal(err)
	}
	text := iscastest.BenchString(ckt)
	u := faults.StuckCollapsed(ckt)
	want, _ := serial.Simulate(context.Background(), u, vectors.Random(ckt, 30, 5))

	const runs, k = 2, 2 // s298's 431 faults are two chunks
	for run := 0; run < runs; run++ {
		v, err := cl.Run(ctx, service.JobSpec{
			Bench: text, BenchName: "s298", Engine: "csim-grid",
			Workers: k, Random: 30, Seed: 5, ReturnDetections: true,
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
	log.mu.Lock()
	defer log.mu.Unlock()
	if len(log.benches) < runs*k {
		t.Errorf("%d shard submissions, want at least %d", len(log.benches), runs*k)
	}
	for i, b := range log.benches {
		if b != text {
			t.Errorf("shard submission %d carried %d bytes of netlist, want the %d-byte text", i, len(b), len(text))
		}
	}
}

// TestFleetCapsShardCount: an explicit workers budget is capped like a
// local compiled run's, at one shard per chunk of 256 faults, and the
// plan is a decide event. workers 64 on s298 (431 faults) dispatches two
// shards, not 64 of which 62 are empty.
func TestFleetCapsShardCount(t *testing.T) {
	log := &shardLog{}
	cl, _, _ := startCluster(t, 2, func(cfg *Config) {
		cfg.HTTPClient = &http.Client{Transport: log}
	})
	ckt, err := iscas.Get("s298")
	if err != nil {
		t.Fatal(err)
	}
	u := faults.StuckCollapsed(ckt)
	want, _ := serial.Simulate(context.Background(), u, vectors.Random(ckt, 30, 5))
	v, err := cl.Run(ctxT(t), service.JobSpec{
		Circuit: "s298", Engine: "csim-C", Workers: 64,
		Random: 30, Seed: 5, ReturnDetections: true,
	}, 0)
	if err != nil || v.Status != service.StatusDone || v.Result == nil {
		t.Fatalf("run: %v / %+v", err, v)
	}
	if v.Result.Workers != 2 {
		t.Errorf("result workers %d, want 2", v.Result.Workers)
	}
	if n := log.count(http.MethodPost, ""); n != 2 {
		t.Errorf("%d shard submissions reached the workers, want 2", n)
	}
	got, err := v.Result.Detections.Result(u)
	if err != nil {
		t.Fatal(err)
	}
	if diff := want.Diff(got); diff != "" {
		t.Errorf("capped fleet result differs from serial:\n%s", diff)
	}
	pm, err := cl.Debug(ctxT(t), v.ID)
	if err != nil {
		t.Fatal(err)
	}
	decided := false
	for _, ev := range pm.Events {
		decided = decided || ev.Kind == "decide" && strings.HasPrefix(ev.Detail, "plan 2x1 (procs=64 ")
	}
	if !decided {
		t.Errorf("no decide event planning 2x1 on procs=64: %+v", pm.Events)
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
		PerWorkerInflight: 2,
		Obs:               &obs.Observer{Metrics: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	front := service.New(service.Config{Addr: "127.0.0.1:0", Workers: 2, Runner: coord, Obs: &obs.Observer{Metrics: reg}})
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

	jv, err := submit(ctx, cl, service.JobSpec{
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

	v, err := cl.Hold(ctx, jv.ID)
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
	if n := reg.Counter("dist.shards_requeued").Value(); n < 1 {
		t.Errorf("dist.shards_requeued = %d, want >= 1", n)
	}
}

// fleetOracleFile holds TestFleetShardsAreCompiled's references, one
// cell per circuit and fault model; -update regenerates it.
const fleetOracleFile = "testdata/fleet_oracle.json"

// fleetCell is one reference: the oracle's detections as a digest and
// counts, and what a single csim-C run of the cell evaluates.
type fleetCell struct {
	Circuit   string `json:"circuit"`
	Model     string `json:"model"`
	Digest    string `json:"digest"`
	Detected  int    `json:"detected"`
	PotOnly   int    `json:"pot_only"`
	Evals     int    `json:"evals"`
	Scheds    int    `json:"scheds"`
	GoodEvals int    `json:"good_evals"`
}

// fleetWorkload is a cell's universe and vectors.
func fleetWorkload(t *testing.T, circuit, model string) (*faults.Universe, *vectors.Set) {
	t.Helper()
	ckt, err := iscas.Get(circuit)
	if err != nil {
		t.Fatal(err)
	}
	u := faults.StuckCollapsed(ckt)
	if model == "transition" {
		u = faults.Transition(ckt)
	}
	return u, vectors.Random(ckt, 64, 11)
}

// fleetOracle runs a cell's oracle: serial on s298 and s1494,
// single-threaded csim-MV on s5378, where serial takes a minute.
func fleetOracle(t *testing.T, circuit string, u *faults.Universe, vs *vectors.Set) *faults.Result {
	t.Helper()
	if circuit != "s5378" {
		want, err := serial.Simulate(context.Background(), u, vs)
		if err != nil {
			t.Fatal(err)
		}
		return want
	}
	single, err := csim.New(u, csim.MV())
	if err != nil {
		t.Fatal(err)
	}
	return single.Run(vs)
}

// resultDigest hashes every fault's Detected, DetectedAt and PotDetected.
func resultDigest(r *faults.Result) string {
	h := sha256.New()
	var b [6]byte
	for i := range r.Detected {
		b[0], b[5] = 0, 0
		if r.Detected[i] {
			b[0] = 1
		}
		binary.LittleEndian.PutUint32(b[1:5], uint32(r.DetectedAt[i]))
		if r.PotDetected[i] {
			b[5] = 1
		}
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// updateFleetOracle recomputes every cell's references and rewrites the
// file.
func updateFleetOracle(t *testing.T) {
	var cells []fleetCell
	for _, circuit := range []string{"s298", "s1494", "s5378"} {
		for _, model := range []string{"stuck", "transition"} {
			u, vs := fleetWorkload(t, circuit, model)
			want := fleetOracle(t, circuit, u, vs)
			_, one, err := engine.Run(context.Background(), engine.CsimC, u, vs, engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, fleetCell{circuit, model, resultDigest(want), want.NumDet, want.NumPotOnly(),
				one.Evals, one.Scheds, one.GoodEvals})
		}
	}
	buf, err := json.MarshalIndent(cells, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fleetOracleFile, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFleetShardsAreCompiled: an unpinned job through a coordinator is
// planned K×1 and every worker runs its shard's fault IDs on the
// compiled kernel. The merged result is bit-for-bit the oracle's on both
// fault models, and the merged stats say what ran: csim-C's evaluation
// counts, and one good trace per worker, since each computes its own.
// The references are committed (fleetOracleFile); on a mismatch the test
// recomputes the cell's oracle and names the first differing fault.
func TestFleetShardsAreCompiled(t *testing.T) {
	if *update {
		updateFleetOracle(t)
	}
	buf, err := os.ReadFile(fleetOracleFile)
	if err != nil {
		t.Fatal(err)
	}
	var cells []fleetCell
	if err := json.Unmarshal(buf, &cells); err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("%s holds %d cells, want 6", fleetOracleFile, len(cells))
	}

	cl, _, _ := startCluster(t, 2, nil)
	ctx := ctxT(t)
	for _, c := range cells {
		tag := c.Circuit + "/" + c.Model
		u, vs := fleetWorkload(t, c.Circuit, c.Model)
		v, err := cl.Run(ctx, service.JobSpec{
			Circuit: c.Circuit, Model: c.Model, Engine: "csim-grid",
			Random: 64, Seed: 11, ReturnDetections: true,
		}, 0)
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
		if resultDigest(got) != c.Digest {
			want, first := fleetOracle(t, c.Circuit, u, vs), "none: the file is stale, regenerate it with -update"
			for i := range want.Detected {
				if want.Detected[i] != got.Detected[i] || want.DetectedAt[i] != got.DetectedAt[i] || want.PotDetected[i] != got.PotDetected[i] {
					first = fmt.Sprintf("%s detected %t at %d (potential %t), oracle %t at %d (%t)",
						u.Faults[i].Name(u.Circuit), got.Detected[i], got.DetectedAt[i], got.PotDetected[i],
						want.Detected[i], want.DetectedAt[i], want.PotDetected[i])
					break
				}
			}
			t.Errorf("%s: distributed result digest differs from %s; first fault that differs from the recomputed oracle: %s",
				tag, fleetOracleFile, first)
		}
		st := v.Result.Stats
		if st.Evals != c.Evals || st.Scheds != c.Scheds || st.Detections != c.Detected {
			t.Errorf("%s: merged stats %+v, csim-C evals %d, scheds %d, oracle %d detected", tag, st, c.Evals, c.Scheds, c.Detected)
		}
		if st.GoodEvals != k*c.GoodEvals {
			t.Errorf("%s: merged GoodEvals %d, want %d shards x one trace of %d", tag, st.GoodEvals, k, c.GoodEvals)
		}
	}
	// A csim-C job is the same fleet job; only the grid reports a window.
	v, err := cl.Run(ctx, service.JobSpec{Circuit: "s298", Engine: "csim-C", Random: 64, Seed: 11}, 0)
	if err != nil || v.Status != service.StatusDone || v.Result == nil {
		t.Fatalf("csim-C: %v / %+v", err, v)
	}
	want := cells[0] // s298/stuck, serial
	if v.Result.Detected != want.Detected || v.Result.PotOnly != want.PotOnly || v.Result.Workers != 2 || v.Result.Windows != 0 {
		t.Errorf("csim-C through the fleet: %+v, oracle %d/%d", v.Result, want.Detected, want.PotOnly)
	}
	if spec := shardSpec(&service.JobSpec{Engine: "csim-grid"}, 0, 2, time.Minute); spec.Engine != engine.CsimC {
		t.Errorf("the coordinator dispatches %s shards, want csim-C", spec.Engine)
	}
}

// TestHealthGaugeConcurrentFlips: dist.workers_healthy equals the number
// of healthy workers once concurrent probers have settled, whichever way
// their transitions interleaved.
func TestHealthGaugeConcurrentFlips(t *testing.T) {
	const n = 8
	reg := obs.NewRegistry()
	r := &registry{
		wakeCh:   make(chan struct{}),
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

// TestBlockedPickersAllWake: K pickers blocked on a fleet with no free
// slot all return, each with a slot of its own, once K slots are
// released back to back, and once one health flip opens K slots at a
// time. Every release and every flip wakes every blocked picker, so none
// waits for a wake-up that another picker used up.
func TestBlockedPickersAllWake(t *testing.T) {
	const k = 4
	ctx := ctxT(t)
	// pickers starts k pickers, lets them block, runs free and waits for
	// all k to return.
	pickers := func(tag string, r *registry, free func()) {
		t.Helper()
		got := make(chan *worker, k)
		for i := 0; i < k; i++ {
			go func() {
				w, err := r.pick(ctx, nil)
				if err != nil {
					t.Error(err)
				}
				got <- w
			}()
		}
		// Let the pickers block. One that has not blocked yet finds a
		// freed slot on its first scan, so the wait cannot fail the test.
		time.Sleep(20 * time.Millisecond)
		free()
		for i := 0; i < k; i++ {
			select {
			case w := <-got:
				if w == nil {
					t.Fatalf("%s: a picker failed", tag)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s: %d of %d pickers returned", tag, i, k)
			}
		}
	}

	// K workers of one slot each, all taken.
	r := &registry{limit: 1, inflight: make([]int, k), wakeCh: make(chan struct{})}
	for i := 0; i < k; i++ {
		w := &worker{idx: i}
		w.healthy.Store(true)
		r.workers = append(r.workers, w)
		if _, err := r.pick(ctx, nil); err != nil {
			t.Fatal(err)
		}
	}
	pickers("k releases", r, func() {
		for _, w := range r.workers {
			r.release(w)
		}
	})

	// One worker of k slots, unhealthy until a probe flips it.
	w := &worker{}
	r = &registry{limit: k, inflight: make([]int, 1), wakeCh: make(chan struct{}), workers: []*worker{w}}
	pickers("one health flip", r, func() { r.setHealth(w, true, nil) })
}
