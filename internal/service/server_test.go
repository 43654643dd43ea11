package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/iscas"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/serial"
	"repro/internal/vectors"
)

// startServer brings up a server on a loopback port and hands back a
// client; both are torn down with the test.
func startServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, NewClient("http://" + s.Addr())
}

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// oracle runs the serial simulator on the same workload a job spec
// describes, for result comparison.
func oracle(t *testing.T, circuit, model string, n int, seed int64) *faults.Result {
	t.Helper()
	c, err := iscas.Get(circuit)
	if err != nil {
		t.Fatalf("iscas.Get(%s): %v", circuit, err)
	}
	var u *faults.Universe
	switch model {
	case "stuck":
		u = faults.StuckCollapsed(c)
	case "transition":
		u = faults.Transition(c)
	default:
		t.Fatalf("oracle: model %q", model)
	}
	res, _ := serial.Simulate(context.Background(), u, vectors.Random(c, n, seed))
	return res
}

// TestJobMatchesSerialOracle: every name the service accepts runs to a
// done job whose view carries the oracle's counts (internal/engine holds
// the results themselves to the oracle).
func TestJobMatchesSerialOracle(t *testing.T) {
	_, cl := startServer(t, Config{Workers: 2})
	ctx := ctxT(t)
	want := oracle(t, "s298", "stuck", 40, 7)
	for _, engine := range Engines {
		v, err := cl.Run(ctx, JobSpec{Circuit: "s298", Engine: engine, Random: 40, Seed: 7}, time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if v.Status != StatusDone {
			t.Fatalf("%s: status %s, error %q", engine, v.Status, v.Error)
		}
		r := v.Result
		if r == nil {
			t.Fatalf("%s: done with nil result", engine)
		}
		if r.Detected != want.NumDet || r.PotOnly != want.NumPotOnly() {
			t.Errorf("%s: det/pot = %d/%d, oracle %d/%d",
				engine, r.Detected, r.PotOnly, want.NumDet, want.NumPotOnly())
		}
		if r.Faults != len(want.Detected) {
			t.Errorf("%s: faults = %d, oracle universe %d", engine, r.Faults, len(want.Detected))
		}
	}
}

// TestGridJobShapes: a csim-grid result reports workers x 1, pinned or
// planned, and windows 0 and 1 in the spec mean the same thing.
func TestGridJobShapes(t *testing.T) {
	_, cl := startServer(t, Config{Workers: 2})
	ctx := ctxT(t)
	want := oracle(t, "s298", "stuck", 40, 7)

	for _, w := range []int{0, 1} {
		v, err := cl.Run(ctx, JobSpec{Circuit: "s298", Engine: "csim-grid", Workers: 2, Windows: w, Random: 40, Seed: 7}, time.Millisecond)
		if err != nil {
			t.Fatalf("csim-grid: %v", err)
		}
		if v.Result == nil || v.Result.Detected != want.NumDet {
			t.Fatalf("csim-grid result %+v, oracle det %d", v.Result, want.NumDet)
		}
		if v.Result.Workers != 2 || v.Result.Windows != 1 {
			t.Errorf("csim-grid windows=%d shape = %dx%d, want 2x1", w, v.Result.Workers, v.Result.Windows)
		}
	}

	// Not pinned: the scheduler plans and the result records it.
	v, err := cl.Run(ctx, JobSpec{Circuit: "s298", Engine: "csim-grid", Random: 40, Seed: 7}, time.Millisecond)
	if err != nil {
		t.Fatalf("auto csim-grid: %v", err)
	}
	if v.Result == nil || v.Result.Detected != want.NumDet {
		t.Fatalf("auto csim-grid result %+v, oracle det %d", v.Result, want.NumDet)
	}
	if v.Result.Workers < 1 || v.Result.Windows != 1 {
		t.Errorf("auto csim-grid did not record a shape: %+v", v.Result)
	}
}

// TestAutoGridRunsThePlanItReports: an unpinned csim-grid job is planned
// K×1 within the server's EngineWorkers, the result reports that K as
// the workers used, and the decide event carries the plan.
func TestAutoGridRunsThePlanItReports(t *testing.T) {
	_, cl := startServer(t, Config{Workers: 1, EngineWorkers: 2})
	ctx := ctxT(t)
	want := oracle(t, "s298", "transition", 64, 3)
	v, err := cl.Run(ctx, JobSpec{Circuit: "s298", Model: "transition", Engine: "csim-grid", Random: 64, Seed: 3}, time.Millisecond)
	if err != nil || v.Result == nil {
		t.Fatalf("auto csim-grid: %v / %+v", err, v)
	}
	if v.Result.Detected != want.NumDet || v.Result.PotOnly != want.NumPotOnly() {
		t.Errorf("detected %d/%d potential, oracle %d/%d", v.Result.Detected, v.Result.PotOnly, want.NumDet, want.NumPotOnly())
	}
	if v.Result.Workers != 2 || v.Result.Windows != 1 {
		t.Errorf("shape %dx%d, want 2x1", v.Result.Workers, v.Result.Windows)
	}
	pm, err := cl.Debug(ctx, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	decided, starts := false, 0
	for _, ev := range pm.Events {
		decided = decided || ev.Kind == "decide" && strings.HasPrefix(ev.Detail, "plan 2x1 ")
		if ev.Kind == "shard_start" && strings.HasPrefix(ev.Detail, "csim-grid shard ") {
			starts++
		}
	}
	if !decided || starts != 2 {
		t.Errorf("want a \"plan 2x1\" decide event and 2 shard_start events, have %+v", pm.Events)
	}
}

func TestTransitionModel(t *testing.T) {
	_, cl := startServer(t, Config{Workers: 1})
	ctx := ctxT(t)
	want := oracle(t, "s344", "transition", 30, 3)
	v, err := cl.Run(ctx, JobSpec{Circuit: "s344", Model: "transition", Random: 30, Seed: 3}, time.Millisecond)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if v.Result == nil || v.Result.Detected != want.NumDet {
		t.Fatalf("transition result %+v, oracle det %d", v.Result, want.NumDet)
	}
}

func TestInlineBenchAndCacheHit(t *testing.T) {
	s, cl := startServer(t, Config{Workers: 1})
	ctx := ctxT(t)
	spec := JobSpec{Bench: iscas.S27Bench, BenchName: "mine", Random: 16, Seed: 2}
	v1, err := cl.Run(ctx, spec, time.Millisecond)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if v1.Result == nil || v1.Result.Circuit != "mine" {
		t.Fatalf("first result: %+v", v1.Result)
	}
	if v1.Result.CacheHit {
		t.Error("first submission reported a cache hit")
	}
	v2, err := cl.Run(ctx, spec, time.Millisecond)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !v2.Result.CacheHit {
		t.Error("resubmitted identical netlist missed the cache")
	}
	if v1.Result.Detected != v2.Result.Detected {
		t.Errorf("detections differ across cache hit: %d vs %d", v1.Result.Detected, v2.Result.Detected)
	}
	if got := s.cache.Len(); got != 1 {
		t.Errorf("cache holds %d entries, want 1", got)
	}
	m, err := cl.Metricsz(ctx)
	if err != nil {
		t.Fatalf("Metricsz: %v", err)
	}
	// One cache lookup per submission: the first misses, the second hits.
	if m["serve.cache_hits"].Value != 1 {
		t.Errorf("cache_hits = %d, want 1", m["serve.cache_hits"].Value)
	}
	if m["serve.cache_misses"].Value != 1 {
		t.Errorf("cache_misses = %d, want 1", m["serve.cache_misses"].Value)
	}
	if m["serve.jobs_completed"].Value != 2 {
		t.Errorf("jobs_completed = %d, want 2", m["serve.jobs_completed"].Value)
	}
}

// TestPollDoesNotEchoInlineNetlist: a job view names an inline netlist
// by its cache key; the 75 KB text a client shipped once does not come
// back with every poll.
func TestPollDoesNotEchoInlineNetlist(t *testing.T) {
	s, cl := startServer(t, Config{Workers: 1})
	ctx := ctxT(t)
	text := netlist.BenchString(iscas.MustGet("s5378"))
	if len(text) < 50_000 {
		t.Fatalf("s5378 .bench is %d bytes, want a large netlist", len(text))
	}
	v, err := cl.Run(ctx, JobSpec{Bench: text, BenchName: "mine", Engine: "csim-C", Random: 64}, time.Millisecond)
	if err != nil || v.Status != StatusDone {
		t.Fatalf("run: %v / %+v", err, v)
	}
	if v.Spec.Bench != "" || v.Spec.BenchKey != InlineKey(text) || v.Spec.BenchName != "mine" {
		t.Errorf("echoed spec: bench of %d bytes, key %q, name %q", len(v.Spec.Bench), v.Spec.BenchKey, v.Spec.BenchName)
	}
	resp, err := http.Get("http://" + s.Addr() + "/api/v1/jobs/" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) >= 2048 || !bytes.Contains(body, []byte(`"bench_key":"sha256:`)) {
		t.Errorf("poll response is %d bytes: %.300s", len(body), body)
	}
	// The echoed spec is itself a valid submission while the circuit is
	// cached.
	again, err := cl.Run(ctx, v.Spec, time.Millisecond)
	if err != nil || again.Result == nil || again.Result.Detected != v.Result.Detected {
		t.Errorf("resubmitting the echoed spec: %v / %+v", err, again)
	}
}

// TestWaitDefaultSchedule: with no poll interval given, Wait looks at a
// job at once and then, if the server suggests a gap for it (a csim-grid
// job: 100 ms), 10 and 20 ms later and from then on that often; with no
// suggestion the second request is held open until the job ends.
func TestWaitDefaultSchedule(t *testing.T) {
	type look struct {
		at   time.Duration
		wait string
	}
	looks := func(body string) []look {
		var mu sync.Mutex
		var seen []look
		var start time.Time
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			if start.IsZero() {
				start = time.Now()
			}
			wait := r.URL.Query().Get("wait")
			seen = append(seen, look{time.Since(start), wait})
			mu.Unlock()
			if wait != "" {
				<-r.Context().Done() // held: the job never ends
				return
			}
			_, _ = io.WriteString(w, body)
		}))
		defer srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 270*time.Millisecond)
		defer cancel()
		if _, err := NewClient(srv.URL).Wait(ctx, "j1", 0); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Wait on a job that never ends: %v, want the context's deadline", err)
		}
		mu.Lock()
		defer mu.Unlock()
		return seen
	}
	// Looks are due at 0, 10, 20, 120 and 220 ms. A loaded host may run a
	// quick look late enough to drop it, never add one.
	at := looks(`{"id":"j1","status":"running","poll_ms":100}`)
	if len(at) < 4 || len(at) > 5 {
		t.Fatalf("suggested 100 ms: looks at %v, want 4 or 5 (0, 10, 20, 120, 220 ms)", at)
	}
	if slow := at[len(at)-1].at - at[len(at)-2].at; slow < 80*time.Millisecond {
		t.Errorf("suggested 100 ms: looks at %v, the last two %v apart", at, slow)
	}
	for _, l := range at {
		if l.wait != "" {
			t.Errorf("suggested 100 ms: a look with ?wait=%s, want none held", l.wait)
		}
	}
	at = looks(`{"id":"j1","status":"running"}`)
	if len(at) != 2 || at[0].wait != "" || at[1].wait != maxHold.String() {
		t.Errorf("no suggestion: looks %v, want one plain and then one held for %v", at, maxHold)
	}
}

// TestGridJobsSuggestTheirPollGap: a whole csim-grid job suggests 100 ms
// between status requests while it is live; a pinned shard, another
// engine and a finished job suggest nothing.
func TestGridJobsSuggestTheirPollGap(t *testing.T) {
	_, cl := startServer(t, Config{Workers: 1})
	ctx := ctxT(t)
	// The one worker is busy, so the jobs below are still queued when
	// their first view is taken.
	if _, err := cl.Submit(ctx, JobSpec{Circuit: "s5378", Engine: "csim-MV", Random: 100}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		spec JobSpec
		want int
	}{
		{JobSpec{Circuit: "s298", Engine: "csim-grid", Random: 64}, gridPollMS},
		{JobSpec{Circuit: "s298", Engine: "csim-grid", Random: 64, FaultShards: 2, FaultShard: 1}, 0},
		{JobSpec{Circuit: "s298", Engine: "csim-C", Random: 64}, 0},
	} {
		v, err := cl.Submit(ctx, tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if v.PollMS != tc.want {
			t.Errorf("%s shard %d/%d, %s: poll_ms %d, want %d", tc.spec.Engine, tc.spec.FaultShard, tc.spec.FaultShards, v.Status, v.PollMS, tc.want)
		}
		if v, err = cl.Wait(ctx, v.ID, time.Millisecond); err != nil || v.Status != StatusDone || v.PollMS != 0 {
			t.Errorf("%s finished: %v, status %s, poll_ms %d, want done and none", tc.spec.Engine, err, v.Status, v.PollMS)
		}
	}
}

// countingTransport counts the requests a client makes.
type countingTransport struct{ n atomic.Int64 }

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return http.DefaultTransport.RoundTrip(r)
}

// TestHoldAnswersWhenTheJobEnds: a status request with ?wait= is held
// until the job is terminal, so Hold sees a job through on one request;
// a wait shorter than the job is answered "running" and asked again.
func TestHoldAnswersWhenTheJobEnds(t *testing.T) {
	_, cl := startServer(t, Config{Workers: 1})
	ctx := ctxT(t)
	rt := &countingTransport{}
	cl.HTTPClient = &http.Client{Transport: rt}
	spec := JobSpec{Circuit: "s1494", Engine: "csim-MV", Random: 300, Seed: 5}
	for _, tc := range []struct {
		hold    time.Duration
		oneLook bool
	}{{time.Minute, true}, {time.Millisecond, false}} {
		jv, err := cl.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		rt.n.Store(0)
		v, err := cl.Hold(ctx, jv.ID, tc.hold)
		if err != nil || v.Status != StatusDone || v.Result == nil {
			t.Fatalf("Hold(%v): %v / %+v", tc.hold, err, v)
		}
		if n := rt.n.Load(); (n == 1) != tc.oneLook {
			t.Errorf("Hold(%v) took %d requests, want one: %t", tc.hold, n, tc.oneLook)
		}
	}
}

func TestOversizedInlineNetlistIs413(t *testing.T) {
	_, cl := startServer(t, Config{Workers: 1, MaxInlineBytes: 2048})
	ctx := ctxT(t)
	big := strings.Repeat("# padding line\n", 1024)
	_, err := cl.Submit(ctx, JobSpec{Bench: iscas.S27Bench + big, Random: 4})
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized inline netlist: got %v, want 413", err)
	}
}

func TestMalformedBenchIsStructured400(t *testing.T) {
	_, cl := startServer(t, Config{Workers: 1})
	ctx := ctxT(t)
	// G9 is driven but never defined as input/gate: netcheck territory.
	bad := "INPUT(G1)\nOUTPUT(G2)\nG2 = AND(G1, G9)\n"
	_, err := cl.Submit(ctx, JobSpec{Bench: bad, Random: 4})
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("malformed bench: got %v, want *APIError", err)
	}
	if ae.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed bench: status %d, want 400", ae.StatusCode)
	}
	if len(ae.Problems) == 0 {
		t.Fatalf("malformed bench: no diagnostics in %v", ae)
	}
	found := false
	for _, p := range ae.Problems {
		if strings.Contains(p, "G9") {
			found = true
		}
	}
	if !found {
		t.Errorf("diagnostics do not mention the undriven net: %q", ae.Problems)
	}
}

// removedP is the name of the interpreted fault-partition engine, spelt
// so that a search for it finds nothing.
const removedP = "csim-" + "P"

func TestSpecValidation400(t *testing.T) {
	_, cl := startServer(t, Config{Workers: 1})
	ctx := ctxT(t)
	// A removed engine is any unknown name; so are the ablations, which
	// only cmd/csim and cmd/tables run. The message lists the survivors.
	survivors := "unknown engine %q (engines: csim | csim-V | csim-M | csim-MV | csim-grid | csim-C | PROOFS | serial)"
	cases := []struct {
		name    string
		spec    JobSpec
		wantMsg string
	}{
		{"neither circuit nor bench", JobSpec{Random: 4}, ""},
		{"both circuit and bench", JobSpec{Circuit: "s27", Bench: iscas.S27Bench, Random: 4}, ""},
		{"unknown engine", JobSpec{Circuit: "s27", Engine: "csim-X", Random: 4}, fmt.Sprintf(survivors, "csim-X")},
		{"the removed fault-partition engine", JobSpec{Circuit: "s27", Engine: removedP, Random: 4}, fmt.Sprintf(survivors, removedP)},
		{"ablation eagerdrop", JobSpec{Circuit: "s27", Engine: "csim-MV-eagerdrop", Random: 4}, fmt.Sprintf(survivors, "csim-MV-eagerdrop")},
		{"ablation reconvergent", JobSpec{Circuit: "s27", Engine: "csim-MV-reconvergent", Random: 4}, fmt.Sprintf(survivors, "csim-MV-reconvergent")},
		{"vector windows", JobSpec{Circuit: "s27", Engine: "csim-grid", Windows: 2, Random: 4}, "vector windows were removed; csim-grid plans fault shards only"},
		{"unknown model", JobSpec{Circuit: "s27", Model: "bridging", Random: 4}, ""},
		{"PROOFS transition", JobSpec{Circuit: "s27", Engine: "PROOFS", Model: "transition", Random: 4}, "engine PROOFS simulates stuck-at faults only"},
		{"no vectors", JobSpec{Circuit: "s27"}, ""},
		{"both vector specs", JobSpec{Circuit: "s27", Random: 4, Vectors: "0000\n"}, ""},
		{"unknown suite circuit", JobSpec{Circuit: "s999999", Random: 4}, ""},
		{"bad inline vectors", JobSpec{Circuit: "s27", Vectors: "01\n"}, ""},
	}
	for _, tc := range cases {
		_, err := cl.Submit(ctx, tc.spec)
		var ae *APIError
		if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: got %v, want 400", tc.name, err)
		} else if tc.wantMsg != "" && ae.Msg != tc.wantMsg {
			t.Errorf("%s: message %q, want %q", tc.name, ae.Msg, tc.wantMsg)
		}
	}
}

// slowSpec is a job long enough to still be running when the test gets
// around to cancelling it (csim checks ctx between cycles, so
// cancellation is prompt regardless of length).
func slowSpec() JobSpec {
	return JobSpec{Circuit: "s5378", Engine: "csim", Random: 200000, Seed: 1}
}

func TestQueueFullIs429AndCancelFreesSlot(t *testing.T) {
	s, cl := startServer(t, Config{Workers: 1, QueueDepth: 1})
	ctx := ctxT(t)

	running, err := cl.Submit(ctx, slowSpec())
	if err != nil {
		t.Fatalf("submit running job: %v", err)
	}
	// Wait until the worker picks it up so the next submission queues.
	waitStatus(t, cl, running.ID, StatusRunning)

	queued, err := cl.Submit(ctx, slowSpec())
	if err != nil {
		t.Fatalf("submit queued job: %v", err)
	}
	if queued.Status != StatusQueued {
		t.Fatalf("second job status %s, want queued", queued.Status)
	}

	// Queue (depth 1) is now full: a third submission is rejected, fast.
	start := time.Now()
	_, err = cl.Submit(ctx, JobSpec{Circuit: "s27", Random: 4})
	var qf *QueueFullError
	if !errors.As(err, &qf) {
		t.Fatalf("overflow submit: got %v, want *QueueFullError", err)
	}
	if qf.RetryAfter < time.Second {
		t.Errorf("Retry-After %s, want >= 1s", qf.RetryAfter)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("overflow submission took %s; admission control must not block", elapsed)
	}

	// Cancelling the queued job frees its admission slot immediately.
	cv, err := cl.Cancel(ctx, queued.ID)
	if err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if cv.Status != StatusCancelled {
		t.Fatalf("cancelled queued job status %s", cv.Status)
	}
	if _, err := cl.Submit(ctx, JobSpec{Circuit: "s27", Random: 4}); err != nil {
		t.Fatalf("submission after freeing the slot was rejected: %v", err)
	}

	// Cancel the long runner too and confirm it lands cancelled.
	if _, err := cl.Cancel(ctx, running.ID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	rv := waitTerminal(t, cl, running.ID)
	if rv.Status != StatusCancelled {
		t.Fatalf("cancelled running job status %s, error %q", rv.Status, rv.Error)
	}
	_ = s
}

func TestJobTimeoutFails(t *testing.T) {
	_, cl := startServer(t, Config{Workers: 1})
	ctx := ctxT(t)
	spec := slowSpec()
	spec.TimeoutMS = 50
	v, err := cl.Run(ctx, spec, time.Millisecond)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if v.Status != StatusFailed || !strings.Contains(v.Error, "timeout") {
		t.Fatalf("timed-out job: status %s, error %q", v.Status, v.Error)
	}
}

// TestTimeoutStopsEveryEngine: ctx means stop on every name the service
// accepts. Each job here runs for over a second when left alone (serial
// for several) and checks its context at least every 100 ms — one cycle,
// one fault, one chunk × block; with a 20 ms timeout it is terminal within
// 500 ms of starting (ten times that under the race detector) and its
// slot runs the next job.
func TestTimeoutStopsEveryEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("admits s35932")
	}
	shapes := map[string]JobSpec{
		"serial":    {Circuit: "s1494", Random: 256},
		"PROOFS":    {Circuit: "s5378", Random: 4096},
		"csim":      {Circuit: "s1494", Random: 4096},
		"csim-V":    {Circuit: "s1494", Random: 4096},
		"csim-M":    {Circuit: "s1494", Random: 4096},
		"csim-MV":   {Circuit: "s1494", Random: 4096},
		"csim-C":    {Circuit: "s35932", Random: 128},
		"csim-grid": {Circuit: "s35932", Random: 128},
	}
	_, cl := startServer(t, Config{Workers: 1})
	ctx := ctxT(t)
	timesOut := func(engine string, spec JobSpec) {
		t.Helper()
		spec.Engine, spec.TimeoutMS = engine, 20
		v, err := cl.Run(ctx, spec, time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if v.Status != StatusFailed || !strings.Contains(v.Error, "timeout") {
			t.Errorf("%s: status %s, error %q, want a timeout", engine, v.Status, v.Error)
		}
		started, _ := time.Parse(time.RFC3339Nano, v.Started)
		finished, _ := time.Parse(time.RFC3339Nano, v.Finished)
		if ran := finished.Sub(started); ran > raceSlowdown*500*time.Millisecond {
			t.Errorf("%s %s/rand:%d: ran %s past a 20 ms timeout", engine, spec.Circuit, spec.Random, ran)
		}
		if next, err := cl.Run(ctx, JobSpec{Circuit: "s27", Random: 4}, time.Millisecond); err != nil || next.Status != StatusDone {
			t.Errorf("%s: the slot did not run the next job: %v / %+v", engine, err, next)
		}
	}
	for _, engine := range Engines {
		spec, ok := shapes[engine]
		if !ok {
			t.Errorf("%s: no slow shape for a served engine", engine)
			continue
		}
		timesOut(engine, spec)
	}
	// The good trace of 512 blocks alone runs 0.6 s before the first fault
	// chunk, and checks its context once a block.
	timesOut("csim-C", JobSpec{Circuit: "s5378", Random: 32768})
}

// pollCtx is a context with no deadline and no values that counts Err
// calls and reports cancellation from the cancelAt-th on, so a test can
// cancel at an exact point of an engine's work instead of at a
// wall-clock time.
type pollCtx struct {
	polls    atomic.Int64
	cancelAt int64
}

func (*pollCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (*pollCtx) Done() <-chan struct{}       { return nil }
func (*pollCtx) Value(any) any               { return nil }

func (c *pollCtx) Err() error {
	if c.polls.Add(1) >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestCancelStopsCompiledWork checks that cancellation reaches inside a
// compiled run, whichever engine name led to it — csim-C, the
// scheduler-planned csim-grid, or the pinned grid shard a coordinator
// dispatches: a cancelled s5378/rand:256 job returns context.Canceled at
// its workers' next chunk or block boundary, having done a small part of
// what an uncancelled one does.
func TestCancelStopsCompiledWork(t *testing.T) {
	const workers = 2
	for _, spec := range []JobSpec{
		{Circuit: "s5378", Engine: "csim-C", Random: 256},
		{Circuit: "s5378", Engine: "csim-grid", Random: 256},
		{Circuit: "s5378", Engine: "csim-grid", Random: 256, FaultShard: 1, FaultShards: 2},
	} {
		name := fmt.Sprintf("%s shard %d of %d", spec.Engine, spec.FaultShard, spec.FaultShards)
		if err := spec.normalize(); err != nil {
			t.Fatal(err)
		}
		cc, _, err := NewCache(1, nil).Lookup(&spec)
		if err != nil {
			t.Fatal(err)
		}
		run := func(cancelAt int64) (int64, *ResultView, error) {
			ctx := &pollCtx{cancelAt: cancelAt}
			rv, err := execute(ctx, &spec, cc, nil, "", workers)
			return ctx.polls.Load(), rv, err
		}

		fullPolls, rv, err := run(1 << 62)
		if err != nil {
			t.Fatalf("%s: uncancelled run: %v", name, err)
		}
		if rv.Workers != workers {
			t.Fatalf("%s: run used %d workers, want %d", name, rv.Workers, workers)
		}
		one, err := execute(context.Background(), &spec, cc, nil, "", 1)
		if err != nil {
			t.Fatalf("%s: one-worker run: %v", name, err)
		}
		if rv.Detected != one.Detected || rv.PotOnly != one.PotOnly || rv.Stats.Evals != one.Stats.Evals {
			t.Errorf("%s: %d workers: %d detected, %d potential, %d evals; one worker: %d, %d, %d", name, workers,
				rv.Detected, rv.PotOnly, rv.Stats.Evals, one.Detected, one.PotOnly, one.Stats.Evals)
		}
		// execute itself polls once before the engine starts; the engine is
		// cancelled at its third boundary.
		const cancelAt = 4
		polls, rv, err := run(cancelAt)
		if !errors.Is(err, context.Canceled) || rv != nil {
			t.Fatalf("%s: cancelled run returned (%v, %v), want (nil, context.Canceled)", name, rv, err)
		}
		if polls > cancelAt+workers {
			t.Errorf("%s: cancelled run polled ctx %d times, want each of %d workers to stop at its next poll after the %dth",
				name, polls, workers, cancelAt)
		}
		if fullPolls < 10*polls {
			t.Errorf("%s: cancelled run stopped after %d of an uncancelled run's %d boundaries, want under a tenth", name, polls, fullPolls)
		}
	}
}

// TestFinishedJobReleasesCompiled checks that a retained terminal job no
// longer pins the circuit compiled at its admission, whichever way it
// ended.
func TestFinishedJobReleasesCompiled(t *testing.T) {
	now := time.Now()
	cc := &Compiled{}

	done := newJob("a", JobSpec{}, cc, false, now)
	if done.compiled() != cc {
		t.Fatal("a queued job does not hold its compiled circuit")
	}
	done.setRunning(now, func() {})
	if done.compiled() != cc {
		t.Fatal("a running job does not hold its compiled circuit")
	}
	done.finish(StatusDone, now, &ResultView{}, "")
	if done.compiled() != nil {
		t.Error("a finished job still holds its compiled circuit")
	}

	queued := newJob("b", JobSpec{}, cc, false, now)
	queued.requestCancel(now)
	if queued.compiled() != nil {
		t.Error("a job cancelled while queued still holds its compiled circuit")
	}
}

func TestGracefulDrainFinishesInFlight(t *testing.T) {
	s, cl := startServer(t, Config{Workers: 2, QueueDepth: 16})
	ctx := ctxT(t)
	var ids []string
	for i := 0; i < 6; i++ {
		v, err := cl.Submit(ctx, JobSpec{Circuit: "s386", Random: 60, Seed: int64(i + 1)})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, v.ID)
	}
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// Post-drain, every admitted job must have completed with a result.
	for _, id := range ids {
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		if j == nil {
			t.Fatalf("job %s evicted during drain", id)
		}
		v := j.view()
		if v.Status != StatusDone || v.Result == nil {
			t.Errorf("job %s after drain: status %s, error %q", id, v.Status, v.Error)
		}
	}
}

func TestDrainRejectsNewSubmissions(t *testing.T) {
	s, cl := startServer(t, Config{Workers: 1})
	ctx := ctxT(t)
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	_, err := cl.Submit(ctx, JobSpec{Circuit: "s27", Random: 4})
	var ae *APIError
	if err == nil {
		t.Fatal("submission during/after drain succeeded")
	}
	if errors.As(err, &ae) && ae.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drained submit: status %d, want 503", ae.StatusCode)
	}
}

func TestConcurrentSubmissions(t *testing.T) {
	_, cl := startServer(t, Config{Workers: 4, QueueDepth: 128})
	ctx := ctxT(t)
	want := oracle(t, "s298", "stuck", 25, 9)
	const n = 32
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := cl.Run(ctx, JobSpec{Circuit: "s298", Random: 25, Seed: 9}, time.Millisecond)
			if err != nil {
				errs <- err
				return
			}
			if v.Status != StatusDone || v.Result == nil {
				errs <- fmt.Errorf("job %s: status %s, error %q", v.ID, v.Status, v.Error)
				return
			}
			if v.Result.Detected != want.NumDet {
				errs <- fmt.Errorf("job %s: det %d, oracle %d", v.ID, v.Result.Detected, want.NumDet)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	m, err := cl.Metricsz(ctx)
	if err != nil {
		t.Fatalf("Metricsz: %v", err)
	}
	if m["serve.jobs_completed"].Value != n {
		t.Errorf("jobs_completed = %d, want %d", m["serve.jobs_completed"].Value, n)
	}
	// One lookup per job at admission; only the very first can miss.
	if hits := m["serve.cache_hits"].Value; hits < n-1 {
		t.Errorf("cache_hits = %d, want >= %d", hits, n-1)
	}
}

func TestHealthAndReadyEndpoints(t *testing.T) {
	s, cl := startServer(t, Config{Workers: 1})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(cl.BaseURL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// The listener is down post-drain; readiness flipping during drain is
	// covered by TestDrainRejectsNewSubmissions via the 503 path.
}

func TestJobNotFound404(t *testing.T) {
	_, cl := startServer(t, Config{Workers: 1})
	ctx := ctxT(t)
	_, err := cl.Job(ctx, "j999")
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: got %v, want 404", err)
	}
}

func TestRetentionEvictsOldFinishedJobs(t *testing.T) {
	s, cl := startServer(t, Config{Workers: 1, Retained: 3})
	ctx := ctxT(t)
	var first string
	for i := 0; i < 6; i++ {
		v, err := cl.Run(ctx, JobSpec{Circuit: "s27", Random: 4, Seed: int64(i + 1)}, time.Millisecond)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if i == 0 {
			first = v.ID
		}
	}
	s.mu.Lock()
	n := len(s.jobs)
	_, firstAlive := s.jobs[first]
	s.mu.Unlock()
	if n > 3 {
		t.Errorf("retained %d finished jobs, bound is 3", n)
	}
	if firstAlive {
		t.Errorf("oldest job %s survived retention eviction", first)
	}
	_, err := cl.Job(ctx, first)
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted job lookup: got %v, want 404", err)
	}
}

func TestObsTracerRecordsJobSpans(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(reg)
	_, cl := startServer(t, Config{Workers: 1, Obs: &obs.Observer{Metrics: reg, Tracer: tr}})
	ctx := ctxT(t)
	if _, err := cl.Run(ctx, JobSpec{Circuit: "s27", Random: 4}, time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	found := false
	for name := range tr.PhaseDurations() {
		if strings.Contains(name, "j1/csim-MV/s27") {
			found = true
		}
	}
	if !found {
		t.Error("no job span recorded on the tracer")
	}
}

func waitStatus(t *testing.T, cl *Client, id string, want Status) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v, err := cl.Job(context.Background(), id)
		if err != nil {
			t.Fatalf("poll %s: %v", id, err)
		}
		if v.Status == want {
			return
		}
		if v.Status.Terminal() {
			t.Fatalf("job %s reached %s while waiting for %s (error %q)", id, v.Status, want, v.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}

func waitTerminal(t *testing.T, cl *Client, id string) JobView {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	v, err := cl.Wait(ctx, id, time.Millisecond)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	return v
}

// TestResultViewEncoding holds a job result's wire form to the bytes the
// service sent when the stats block was a hand-kept mirror of csim.Stats:
// same names, same order, same omitted zeros.
func TestResultViewEncoding(t *testing.T) {
	golden := map[string]string{
		"csim-C":  `{"engine":"csim-C","circuit":"s27","model":"stuck","patterns":16,"faults":26,"detected":5,"pot_only":5,"coverage":0.19230769230769232,"workers":1,"run_ns":0,"cache_hit":false,"stats":{"evals":372,"skips":0,"good_evals":160,"scheds":372,"passes":26,"steps":65,"peak_elems":3,"cur_elems":1,"macros":0,"mem_bytes":2840,"detections":5},"detections":{"detected_at":[-1,-1,-1,-1,-1,-1,-1,-1,-1,-1,3,-1,0,-1,3,-1,-1,-1,-1,-1,3,-1,-1,0,-1,-1],"pot":[0,2,14,15,16,20,24]}}`,
		"csim-MV": `{"engine":"csim-MV","circuit":"s27","model":"stuck","patterns":16,"faults":26,"detected":5,"pot_only":5,"coverage":0.19230769230769232,"run_ns":0,"cache_hit":false,"stats":{"evals":296,"skips":103,"good_evals":51,"scheds":65,"peak_elems":67,"cur_elems":34,"macros":7,"mem_bytes":1072,"detections":5},"detections":{"detected_at":[-1,-1,-1,-1,-1,-1,-1,-1,-1,-1,3,-1,0,-1,3,-1,-1,-1,-1,-1,3,-1,-1,0,-1,-1],"pot":[0,2,14,15,16,20,24]}}`,
	}
	cache := NewCache(4, nil)
	for engine, want := range golden {
		spec := JobSpec{Circuit: "s27", Engine: engine, Random: 16, Seed: 1, ReturnDetections: true}
		if err := spec.normalize(); err != nil {
			t.Fatal(err)
		}
		cc, _, err := cache.Lookup(&spec)
		if err != nil {
			t.Fatal(err)
		}
		rv, err := execute(context.Background(), &spec, cc, nil, "x.", 1)
		if err != nil {
			t.Fatal(err)
		}
		rv.RunNS = 0
		if got, _ := json.Marshal(rv); string(got) != want {
			t.Errorf("%s result encodes as\n%s\nwant\n%s", engine, got, want)
		}
	}
}
