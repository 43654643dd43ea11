package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/iscas"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// gateRunner is a JobRunner whose jobs end when the test says so: RunJob
// announces the job on started and then waits for a token on release (or
// for its context). A job whose seed is panicSeed panics instead.
type gateRunner struct {
	started chan string
	release chan struct{}
}

const panicSeed = 13

func newGateRunner() *gateRunner {
	// Buffered well past any test's job count, so RunJob never waits on
	// a test that does not read started.
	return &gateRunner{started: make(chan string, 4096), release: make(chan struct{}, 4096)}
}

func (g *gateRunner) RunJob(ctx context.Context, req *RunRequest) (*ResultView, error) {
	g.started <- req.ID
	if req.Spec.Seed == panicSeed {
		panic("gateRunner: poisoned job " + req.ID)
	}
	select {
	case <-g.release:
		return &ResultView{Engine: req.Spec.Engine, Circuit: req.CC.Circuit.Name, Detected: 7}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// open lets the next n jobs end as soon as they start.
func (g *gateRunner) open(n int) {
	for i := 0; i < n; i++ {
		g.release <- struct{}{}
	}
}

// startGated brings up a server whose jobs run on a gateRunner.
func startGated(t *testing.T, cfg Config) (*Server, *Client, *gateRunner, *obs.Registry) {
	t.Helper()
	g := newGateRunner()
	reg := obs.NewRegistry()
	cfg.Runner, cfg.Obs = g, &obs.Observer{Metrics: reg}
	s, cl := startServer(t, cfg)
	return s, cl, g, reg
}

// post submits spec to path (the jobs collection plus a query) and
// returns the status code with the decoded view.
func post(ctx context.Context, cl *Client, query string, spec JobSpec) (int, JobView, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, JobView{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cl.BaseURL+"/api/v1/jobs"+query, bytes.NewReader(body))
	if err != nil {
		return 0, JobView{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, JobView{}, err
	}
	defer resp.Body.Close()
	var v JobView
	err = json.NewDecoder(resp.Body).Decode(&v)
	return resp.StatusCode, v, err
}

// waitMetric waits until the named metric reads want.
func waitMetric(t *testing.T, reg *obs.Registry, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		p, _ := reg.Get(name)
		if p.Value == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", name, p.Value, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// reply is what post returned, for a test that posts on another goroutine.
type reply struct {
	code int
	v    JobView
	err  error
}

var tinySpec = JobSpec{Circuit: "s27", Engine: "csim-C", Random: 4}

// TestHeldSubmitAnswersWhenTheJobEnds: POST ?wait= is answered 200 with
// the terminal view when the job ends inside the wait, and the flight
// record says the view was delivered on it; a wait the job outlives is
// answered 202 with the live view, no sooner than the wait.
func TestHeldSubmitAnswersWhenTheJobEnds(t *testing.T) {
	_, cl, g, reg := startGated(t, Config{Workers: 1})
	ctx := ctxT(t)

	got := make(chan reply, 1)
	go func() {
		code, v, err := post(ctx, cl, "?wait=1m", tinySpec)
		got <- reply{code, v, err}
	}()
	<-g.started
	waitMetric(t, reg, "serve.holds", 1)
	select {
	case r := <-got:
		t.Fatalf("held POST answered while the job ran: %d %+v %v", r.code, r.v, r.err)
	case <-time.After(20 * time.Millisecond):
	}
	g.open(1)
	r := <-got
	if r.err != nil || r.code != http.StatusOK || r.v.Status != StatusDone || r.v.Result == nil || r.v.Result.Detected != 7 {
		t.Fatalf("held POST: %d %+v %v, want 200 and the finished job", r.code, r.v, r.err)
	}
	waitMetric(t, reg, "serve.holds", 0)
	waitMetric(t, reg, "serve.held_submits", 1)
	pm, err := cl.Debug(ctx, r.v.ID)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, ev := range pm.Events {
		kinds = append(kinds, ev.Kind)
	}
	if n := len(kinds); n < 2 || kinds[n-2] != "finish" || kinds[n-1] != "delivered" {
		t.Errorf("flight record ends %v, want finish then delivered", kinds)
	}

	start := time.Now()
	code, v, err := post(ctx, cl, "?wait=30ms", tinySpec)
	if err != nil || code != http.StatusAccepted || v.Status.Terminal() {
		t.Fatalf("POST with a wait the job outlives: %d %+v %v, want 202 and a live view", code, v, err)
	}
	if held := time.Since(start); held < 30*time.Millisecond {
		t.Errorf("answered after %v, before the 30 ms wait had passed", held)
	}
	g.open(1)
	if v, err = cl.Hold(ctx, v.ID); err != nil || v.Status != StatusDone {
		t.Fatalf("Hold after the 202: %v / %+v", err, v)
	}
	// An un-held submission is answered as before.
	g.open(1)
	if code, _, err := post(ctx, cl, "", tinySpec); err != nil || code != http.StatusAccepted {
		t.Errorf("POST without wait: %d %v, want 202", code, err)
	}
}

// TestHeldSubmitIsReleased: a caller that goes away and a server that
// closes both end the hold; the first leaves the job running, the second
// answers with the job it cancelled.
func TestHeldSubmitIsReleased(t *testing.T) {
	s, cl, g, reg := startGated(t, Config{Workers: 2})
	ctx := ctxT(t)

	gone, cancel := context.WithCancel(ctx)
	errc := make(chan error, 1)
	go func() {
		_, _, err := post(gone, cl, "?wait=1m", tinySpec)
		errc <- err
	}()
	id := <-g.started
	waitMetric(t, reg, "serve.holds", 1)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned POST: %v, want the context's cancellation", err)
	}
	waitMetric(t, reg, "serve.holds", 0)
	if v, err := cl.Job(ctx, id); err != nil || v.Status != StatusRunning {
		t.Fatalf("job of the abandoned POST: %v / %+v, want it still running", err, v)
	}

	got := make(chan reply, 1)
	go func() {
		code, v, err := post(ctx, cl, "?wait=1m", tinySpec)
		got <- reply{code, v, err}
	}()
	<-g.started
	waitMetric(t, reg, "serve.holds", 1)
	_ = s.Close()
	select {
	case r := <-got:
		if r.err != nil || r.code != http.StatusOK || r.v.Status != StatusCancelled {
			t.Errorf("POST held across Close: %d %+v %v, want 200 and the cancelled job", r.code, r.v, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not release the held POST")
	}
}

// TestQueueFullIsNotHeld: a submission the queue has no room for is
// refused at once, wait or no wait.
func TestQueueFullIsNotHeld(t *testing.T) {
	_, cl, g, reg := startGated(t, Config{Workers: 1, QueueDepth: 1})
	ctx := ctxT(t)
	for i := 0; i < 2; i++ { // one running, one queued
		if _, err := cl.Submit(ctx, tinySpec); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-g.started
		}
	}
	start := time.Now()
	_, err := cl.SubmitHold(ctx, tinySpec)
	var qf *QueueFullError
	if !errors.As(err, &qf) {
		t.Fatalf("held submission to a full queue: %v, want *QueueFullError", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("the 429 took %v; a rejection must not be held", took)
	}
	if p, _ := reg.Get("serve.holds"); p.Value != 0 {
		t.Errorf("serve.holds = %d after a rejection, want 0", p.Value)
	}
	if p, _ := reg.Get("serve.held_submits"); p.Value != 0 {
		t.Errorf("serve.held_submits = %d, want 0: the rejected job was never held", p.Value)
	}
}

// TestBadWaitIs400: a wait that does not parse or is not positive is
// refused on both verbs, before anything is admitted; the client never
// sends one, whatever hold it is given.
func TestBadWaitIs400(t *testing.T) {
	_, cl, g, reg := startGated(t, Config{Workers: 1})
	ctx := ctxT(t)
	live, err := cl.Submit(ctx, tinySpec)
	if err != nil {
		t.Fatal(err)
	}
	<-g.started
	for _, wait := range []string{"abc", "0s", "-1s", ""} {
		if code, _, err := post(ctx, cl, "?wait="+wait, tinySpec); err != nil || code != http.StatusBadRequest {
			t.Errorf("POST ?wait=%s: %d %v, want 400", wait, code, err)
		}
		var v JobView
		err := cl.do(ctx, http.MethodGet, "/api/v1/jobs/"+live.ID+"?wait="+wait, nil, &v)
		var ae *APIError
		if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest || !strings.Contains(ae.Msg, "wait") {
			t.Errorf("GET ?wait=%s: %v, want a 400 that names the parameter", wait, err)
		}
	}
	if p, _ := reg.Get("serve.jobs_submitted"); p.Value != 1 {
		t.Errorf("serve.jobs_submitted = %d, want 1: a refused wait admits nothing", p.Value)
	}

	rt := &countingTransport{}
	cl.HTTPClient = &http.Client{Transport: rt}
	done := make(chan JobView, 1)
	go func() {
		v, _ := cl.Hold(ctx, live.ID)
		done <- v
	}()
	waitMetric(t, reg, "serve.holds", 1)
	g.open(1)
	if v := <-done; v.Status != StatusDone {
		t.Fatalf("Hold: %+v, want the finished job", v)
	}
	if n := rt.n.Load(); n != 1 {
		t.Errorf("Hold took %d requests, want one held for the server's maximum", n)
	}
}

// lookLog is a RoundTripper that notes when each request left and what
// it was.
type lookLog struct {
	mu    sync.Mutex
	looks []look
}

type look struct {
	method, query string
	at            time.Time
}

func (l *lookLog) RoundTrip(r *http.Request) (*http.Response, error) {
	l.mu.Lock()
	l.looks = append(l.looks, look{r.Method, r.URL.RawQuery, time.Now()})
	l.mu.Unlock()
	return http.DefaultTransport.RoundTrip(r)
}

func (l *lookLog) take() []look {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.looks
	l.looks = nil
	return out
}

// TestRunIsOneExchange: Run is one held POST for every job, a whole
// csim-grid job included, however long it runs.
func TestRunIsOneExchange(t *testing.T) {
	_, cl := startServer(t, Config{Workers: 1})
	ctx := ctxT(t)
	rt := &lookLog{}
	cl.HTTPClient = &http.Client{Transport: rt}
	v, err := cl.Run(ctx, JobSpec{Circuit: "s298", Engine: "csim-C", Random: 64}, 0)
	if err != nil || v.Status != StatusDone || v.Result == nil {
		t.Fatalf("Run: %v / %+v", err, v)
	}
	if ls := rt.take(); len(ls) != 1 || ls[0].method != http.MethodPost || !strings.HasPrefix(ls[0].query, "wait=") {
		t.Errorf("Run of a csim-C job made %+v, want one POST ?wait=", ls)
	}

	// A whole grid job that ends 170 ms in is still the one held POST.
	_, gcl, g, _ := startGated(t, Config{Workers: 1})
	gcl.HTTPClient = &http.Client{Transport: rt}
	time.AfterFunc(170*time.Millisecond, func() { g.open(1) })
	v, err = gcl.Run(ctx, JobSpec{Circuit: "s298", Engine: "csim-grid", Random: 64}, 0)
	if err != nil || v.Status != StatusDone {
		t.Fatalf("Run of a grid job: %v / %+v", err, v)
	}
	if ls := rt.take(); len(ls) != 1 || ls[0].method != http.MethodPost || !strings.HasPrefix(ls[0].query, "wait=") {
		t.Errorf("Run of a csim-grid job made %+v, want one POST ?wait=", ls)
	}
}

// TestPanicIsContained: a job whose run panics ends failed with the stack
// in its flight record, the request held on it gets that view, the panic
// is counted and the worker slot serves the next job.
func TestPanicIsContained(t *testing.T) {
	_, cl, g, reg := startGated(t, Config{Workers: 1})
	ctx := ctxT(t)
	poison := tinySpec
	poison.Seed = panicSeed
	v, err := cl.Run(ctx, poison, 0)
	if err != nil {
		t.Fatalf("Run of a panicking job: %v", err)
	}
	if v.Status != StatusFailed || !strings.HasPrefix(v.Error, PanicErrorPrefix) || !strings.Contains(v.Error, "poisoned job") {
		t.Fatalf("panicking job: status %s, error %q, want failed with the panic value", v.Status, v.Error)
	}
	waitMetric(t, reg, "serve.job_panics", 1)
	waitMetric(t, reg, "serve.jobs_failed", 1)
	pm, err := cl.Debug(ctx, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	stack := ""
	for _, ev := range pm.Events {
		if ev.Kind == "panic" {
			stack = ev.Detail
		}
	}
	if !strings.Contains(stack, "goroutine") || !strings.Contains(stack, "gateRunner") {
		t.Errorf("flight record's panic event %q, want the stack through the runner", stack)
	}
	g.open(1)
	if v, err = cl.Run(ctx, tinySpec, 0); err != nil || v.Status != StatusDone {
		t.Fatalf("job after the panic, same slot: %v / %+v", err, v)
	}
}

// TestRetentionDefault: with no Retained configured the server keeps the
// newest 2048 finished jobs.
func TestRetentionDefault(t *testing.T) {
	s, cl, g, _ := startGated(t, Config{Workers: 1})
	ctx := ctxT(t)
	const extra = 5
	want := Config{}.withDefaults().Retained
	if want != 2048 {
		t.Fatalf("default Retained %d, want 2048", want)
	}
	g.open(want + extra)
	var first string
	for i := 0; i < want+extra; i++ {
		v, err := cl.SubmitHold(ctx, tinySpec)
		if err != nil || v.Status != StatusDone {
			t.Fatalf("job %d: %v / %+v", i, err, v)
		}
		if i == 0 {
			first = v.ID
		}
	}
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	if n != want {
		t.Errorf("%d finished jobs retained, want %d", n, want)
	}
	var ae *APIError
	if _, err := cl.Job(ctx, first); !errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound {
		t.Errorf("oldest job after %d more: %v, want 404", want+extra-1, err)
	}
	if _, err := cl.Job(ctx, fmt.Sprintf("j%d", extra+1)); err != nil {
		t.Errorf("job %d of %d: %v, want it retained", extra+1, want+extra, err)
	}
}

// TestFullQueueRefusesBeforeTheCacheMiss: a submission the queue has no
// room for is a 429 with Retry-After before its netlist is parsed,
// verified and cached, so turning it away costs the node no miss and
// evicts no circuit a queued job is waiting to run on.
func TestFullQueueRefusesBeforeTheCacheMiss(t *testing.T) {
	s, cl, g, reg := startGated(t, Config{Workers: 1, QueueDepth: 1, CacheSize: 1})
	ctx := ctxT(t)
	if _, err := cl.Submit(ctx, tinySpec); err != nil {
		t.Fatal(err)
	}
	<-g.started // the first job holds the only slot; the second fills the queue
	if v, err := cl.Submit(ctx, tinySpec); err != nil || v.Status != StatusQueued {
		t.Fatalf("second job: %v / %+v", err, v)
	}
	metric := func(name string) int64 {
		p, _ := reg.Get(name)
		return p.Value
	}
	misses, evictions, entries := metric("serve.cache_misses"), metric("serve.cache_evictions"), s.cache.Len()

	_, err := cl.Submit(ctx, JobSpec{Bench: iscas.S27Bench, BenchName: "refused", Engine: "csim-C", Random: 4})
	var qf *QueueFullError
	if !errors.As(err, &qf) || qf.RetryAfter < time.Second {
		t.Fatalf("inline submission to a full queue: %v, want a 429 with Retry-After", err)
	}
	if m, e, n := metric("serve.cache_misses"), metric("serve.cache_evictions"), s.cache.Len(); m != misses || e != evictions || n != entries {
		t.Errorf("the refused job moved the cache: misses %d -> %d, evictions %d -> %d, entries %d -> %d",
			misses, m, evictions, e, entries, n)
	}
	if got := metric("serve.jobs_rejected"); got != 1 {
		t.Errorf("serve.jobs_rejected = %d, want 1", got)
	}
	g.open(2)
}

// jobSpec reads a retained job's spec as the server holds it.
func jobSpec(t *testing.T, s *Server, id string) JobSpec {
	t.Helper()
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		t.Fatalf("job %s is not retained", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.spec
}

// TestFinishedJobDropsNetlistText: however a job with an inline netlist
// ends — done, failed, cancelled while queued — the retained record keeps
// the netlist's cache key in place of its text, the view reads as it did
// while the job was live, and the key is a valid resubmission while the
// circuit is cached. 200 finished 75 KB jobs then hold 200 small records,
// not 15 MB of text nobody can read back.
func TestFinishedJobDropsNetlistText(t *testing.T) {
	s, cl, g, _ := startGated(t, Config{Workers: 1, CacheSize: 4})
	ctx := ctxT(t)
	key := InlineKey(iscas.S27Bench)
	inline := JobSpec{Bench: iscas.S27Bench, BenchName: "mine", Engine: "csim-C", Random: 4}
	check := func(how string, v JobView, want Status) {
		t.Helper()
		if v.Status != want {
			t.Fatalf("%s: status %s, want %s", how, v.Status, want)
		}
		if v.Spec.Bench != "" || v.Spec.BenchKey != key || v.Spec.BenchName != "mine" {
			t.Errorf("%s: view spec has %d bytes of text, key %q, name %q", how, len(v.Spec.Bench), v.Spec.BenchKey, v.Spec.BenchName)
		}
		if sp := jobSpec(t, s, v.ID); sp.Bench != "" || sp.BenchKey != key || sp.BenchName != "mine" {
			t.Errorf("%s: retained spec has %d bytes of text, key %q, name %q", how, len(sp.Bench), sp.BenchKey, sp.BenchName)
		}
	}

	g.open(1)
	v, err := cl.Run(ctx, inline, 0)
	if err != nil {
		t.Fatal(err)
	}
	check("done", v, StatusDone)

	poisoned := inline
	poisoned.Seed = panicSeed
	if v, err = cl.Run(ctx, poisoned, 0); err != nil {
		t.Fatal(err)
	}
	check("failed", v, StatusFailed)

	blocker, err := cl.Submit(ctx, tinySpec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, cl, blocker.ID, StatusRunning)
	queued, err := cl.Submit(ctx, inline)
	if err != nil {
		t.Fatal(err)
	}
	if sp := jobSpec(t, s, queued.ID); sp.Bench != iscas.S27Bench {
		t.Errorf("a queued job's spec holds %d bytes of text, want the netlist", len(sp.Bench))
	}
	if v, err = cl.Cancel(ctx, queued.ID); err != nil {
		t.Fatal(err)
	}
	check("cancelled while queued", v, StatusCancelled)
	g.open(2)
	waitTerminal(t, cl, blocker.ID)
	if v, err = cl.Run(ctx, JobSpec{BenchKey: key, Engine: "csim-C", Random: 4}, 0); err != nil || v.Status != StatusDone || !v.Result.CacheHit {
		t.Errorf("resubmission by bench_key: %v / %+v, want a done job on a cache hit", err, v)
	}

	text := netlist.BenchString(iscas.MustGet("s5378"))
	const jobs = 200
	before := liveHeap()
	g.open(jobs)
	for i := 0; i < jobs; i++ {
		spec := JobSpec{Bench: fmt.Sprintf("%s# variant %d\n", text, i), Engine: "csim-C", Random: 4}
		if v, err := cl.Run(ctx, spec, 0); err != nil || v.Status != StatusDone || v.Result.CacheHit {
			t.Fatalf("job %d: %v / %+v, want a done job on a cache miss", i, err, v)
		}
	}
	if grew := liveHeap() - before; grew > 8<<20 {
		t.Errorf("%d finished jobs of %d bytes each left the heap %.1f MB larger, want under 8 MB",
			jobs, len(text), float64(grew)/(1<<20))
	}
}
