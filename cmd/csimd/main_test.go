package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// childEnv makes the test binary run csimd's main instead of its tests:
// the end-to-end tests below start the binary itself as csimd processes,
// so under -race the servers they drive are race-built too.
const childEnv = "CSIMD_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		// The parent holds the write end of stdin; it closes when the
		// parent exits, even by a test timeout, and the child follows.
		go func() {
			_, _ = io.Copy(io.Discard, os.Stdin)
			os.Exit(3)
		}()
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestWorkerList(t *testing.T) {
	for _, in := range []string{"", "  ", " , ,"} {
		if got, err := workerList(in); err == nil {
			t.Errorf("workerList(%q) = %v, want an error", in, got)
		}
	}
	got, err := workerList("127.0.0.1:8418, https://w1:8419 ,")
	want := []string{"http://127.0.0.1:8418", "https://w1:8419"}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("workerList = %v, %v; want %v", got, err, want)
	}
}

func TestBuildLogger(t *testing.T) {
	for _, format := range []string{"json", "text"} {
		for _, level := range []string{"info", "warn", "error"} {
			if _, err := buildLogger(format, level); err != nil {
				t.Errorf("buildLogger(%q, %q): %v", format, level, err)
			}
		}
	}
	for _, level := range []string{"loud", "debug"} {
		if _, err := buildLogger("json", level); err == nil {
			t.Errorf("-log-level %s is accepted", level)
		}
	}
	if _, err := buildLogger("xml", "info"); err == nil {
		t.Error("an unknown -log-format is accepted")
	}
}

// TestServeSmoke drives one csimd with held submissions and holds every
// job to the serial oracle's counts in baselines/serve-smoke.json, then
// times a correlated job out, reads its postmortem and drains the server.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a csimd process and runs about 100 s5378 jobs")
	}
	oracle := baseline(t, "serve-smoke.json")
	srv := startDaemon(t, "csimd", "-workers", "4", "-queue", "128", "-log-format", "json", "-log-level", "info")
	stuck := service.JobSpec{Circuit: "s5378", Model: "stuck", Random: 100, Seed: 1}

	// 56 submissions at once against 4 workers: the queue holds the rest
	// in flight, and all but the first find the circuit cached. They run
	// on csim-C, so the phase is about admission, not engine time.
	burst := stuck
	burst.Engine = "csim-C"
	p := load(t, srv.url, 56, 1, burst)
	checkJobs(t, "csim-C burst", p, 56, oracle["stuck"])
	if p.peak < 50 {
		t.Errorf("peak in-flight %d, want >= 50", p.peak)
	}
	checkHitRate(t, srv.url, 0.9)

	mv := stuck
	mv.Engine = "csim-MV"
	checkJobs(t, "csim-MV stuck", load(t, srv.url, 8, 1, mv), 8, oracle["stuck"])

	// One client per worker: no job outlives the 30 s hold, so Run is
	// one held request per job.
	p = load(t, srv.url, 4, 4, burst)
	checkJobs(t, "csim-C stuck", p, 16, oracle["stuck"])
	if perJob := float64(p.requests) / float64(len(p.views)); perJob > 1.1 {
		t.Errorf("%.2f HTTP requests per csim-C job, want <= 1.1", perJob)
	}

	trans := mv
	trans.Model = "transition"
	checkJobs(t, "csim-MV transition", load(t, srv.url, 8, 2, trans), 16, oracle["transition"])
	checkHitRate(t, srv.url, 0.9)
	checkPrometheus(t, srv.url)

	// A correlated job that times out: its postmortem names it, says
	// why it failed and keeps the scheduler's verdict.
	const id = "postmortem"
	cl := service.NewClient(srv.url)
	ctx := obs.WithJobID(context.Background(), id)
	if _, err := submit(ctx, cl, service.JobSpec{Circuit: "s5378", Engine: "csim-grid", Random: 200000, Seed: 1, TimeoutMS: 1}); err != nil {
		t.Fatalf("submit %s: %v", id, err)
	}
	v, err := cl.Hold(ctx, id)
	if err != nil || v.Status != service.StatusFailed {
		t.Errorf("timed-out job: %v, want status failed; view:\n%s", err, asJSON(v))
	}
	pm, err := cl.Debug(ctx, id)
	if err != nil {
		t.Fatalf("debug %s: %v", id, err)
	}
	decide := slices.ContainsFunc(pm.Events, func(e obs.FlightEvent) bool { return e.Kind == "decide" })
	if pm.JobID != id || !strings.Contains(pm.Error, "timeout") || !decide {
		t.Errorf("postmortem: want job_id %q, a timeout error and a decide event; got:\n%s", id, asJSON(pm))
	}

	srv.drain(t)

	// The job's first structured log record carries the correlation schema.
	var rec map[string]any
	for _, line := range strings.Split(srv.stderr.String(), "\n") {
		if strings.Contains(line, `"job_id":"`+id+`"`) {
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("log record %q: %v", line, err)
			}
			break
		}
	}
	for _, key := range []string{"job_id", "phase", "engine"} {
		if _, ok := rec[key]; !ok {
			t.Errorf("the first log record of %s has no %q: %v", id, key, rec)
		}
	}
}

// TestServeOverload: a csimd with one worker and a queue of two answers
// a burst with 429s, and every job still completes once its client
// honours Retry-After.
func TestServeOverload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a csimd process")
	}
	srv := startDaemon(t, "csimd-tiny", "-workers", "1", "-queue", "2")
	p := load(t, srv.url, 12, 2, service.JobSpec{Circuit: "s298", Model: "stuck", Engine: "csim-MV", Random: 200, Seed: 1})
	if p.rejections == 0 {
		t.Error("24 jobs against a queue of 2 drew no 429")
	}
	if len(p.views) != 24 {
		t.Errorf("%d of 24 jobs came back", len(p.views))
	}
	for _, v := range p.views {
		if v.Status != service.StatusDone {
			t.Errorf("job after 429 backoff:\n%s", asJSON(v))
		}
	}
	srv.drain(t)
}

// TestFleetSmoke runs a coordinator over two worker processes: its
// csim-grid jobs give the serial oracle's counts on both fault models,
// and a job whose worker is killed mid-run re-queues its shards onto the
// survivor and still gives the counts in baselines/dist-smoke.json.
func TestFleetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts three csimd processes and runs an s35932 job")
	}
	oracle := baseline(t, "serve-smoke.json")
	w0 := startDaemon(t, "worker0", "-workers", "4")
	w1 := startDaemon(t, "worker1", "-workers", "4")
	coord := startDaemon(t, "coordinator", "-coordinator",
		"-worker-addrs", strings.TrimPrefix(w0.url, "http://")+","+strings.TrimPrefix(w1.url, "http://"),
		"-probe-interval", "500ms", "-log-format", "json")

	grid := service.JobSpec{Circuit: "s5378", Model: "stuck", Engine: "csim-grid", Random: 100, Seed: 1}
	checkJobs(t, "fleet stuck", load(t, coord.url, 4, 2, grid), 8, oracle["stuck"])
	grid.Model = "transition"
	checkJobs(t, "fleet transition", load(t, coord.url, 2, 2, grid), 4, oracle["transition"])
	checkPrometheus(t, coord.url)

	// Kill worker 0 while it holds a shard: the job must finish on
	// worker 1 with the oracle's exact counts.
	const id = "kill"
	cl := service.NewClient(coord.url)
	ctx := obs.WithJobID(context.Background(), id)
	if _, err := submit(ctx, cl, service.JobSpec{Circuit: "s35932", Engine: "csim-grid", Random: 256, Seed: 1, Workers: 6}); err != nil {
		t.Fatalf("submit %s: %v", id, err)
	}
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(20 * time.Millisecond) {
		m, err := cl.Metricsz(ctx)
		if err != nil {
			t.Fatalf("coordinator metricsz: %v", err)
		}
		if m["dist.worker0.inflight"].Value >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker 0 never picked up a shard")
		}
	}
	w0.kill()
	v, err := cl.Hold(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	want := baseline(t, "dist-smoke.json")["stuck"]
	pm, err := cl.Debug(ctx, id)
	if err != nil {
		t.Fatalf("debug %s: %v", id, err)
	}
	if v.Status != service.StatusDone || lastPhase(pm) != "coordinator phase done" || v.Result == nil || resultCounts(v.Result) != want {
		t.Errorf("job after the worker kill: want done, dist_phase done and %+v; view:\n%s\npostmortem:\n%s",
			want, asJSON(v), asJSON(pm))
	}
	m, err := cl.Metricsz(ctx)
	if err != nil {
		t.Fatalf("coordinator metricsz: %v", err)
	}
	if n := m["dist.shards_requeued"].Value; n < 1 {
		t.Errorf("dist.shards_requeued = %d, want >= 1", n)
	}
	if n := m["dist.workers_healthy"].Value; n != 1 {
		t.Errorf("dist.workers_healthy = %d, want 1", n)
	}

	coord.drain(t)
	w1.drain(t)
	for _, msg := range []string{"dist shard requeued", "dist worker unhealthy"} {
		if !strings.Contains(coord.stderr.String(), `"msg":"`+msg+`"`) {
			t.Errorf("the coordinator log has no %q record", msg)
		}
	}
}

// counts are one fault model's oracle counts, as a baselines file and a
// job result both give them.
type counts struct {
	Faults   int `json:"faults"`
	Detected int `json:"detected"`
	PotOnly  int `json:"pot_only"`
}

func resultCounts(r *service.ResultView) counts {
	return counts{Faults: r.Faults, Detected: r.Detected, PotOnly: r.PotOnly}
}

// baseline reads a committed oracle file's per-model counts.
func baseline(t *testing.T, name string) map[string]counts {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "baselines", name))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Models map[string]counts `json:"models"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return doc.Models
}

// checkJobs fails every job of a load phase that did not end done with
// the oracle's counts, and a phase that lost jobs.
func checkJobs(t *testing.T, name string, p phase, n int, want counts) {
	t.Helper()
	if len(p.views) != n {
		t.Errorf("%s: %d of %d jobs came back", name, len(p.views), n)
	}
	for _, v := range p.views {
		if v.Status != service.StatusDone || v.Result == nil || resultCounts(v.Result) != want {
			t.Errorf("%s: want done with %+v; view:\n%s", name, want, asJSON(v))
		}
	}
}

// checkHitRate holds the server's compiled-circuit cache hit rate so far
// to a floor.
func checkHitRate(t *testing.T, url string, floor float64) {
	t.Helper()
	m, err := service.NewClient(url).Metricsz(context.Background())
	if err != nil {
		t.Fatalf("metricsz: %v", err)
	}
	hits, misses := m["serve.cache_hits"].Value, m["serve.cache_misses"].Value
	if rate := float64(hits) / float64(hits+misses); !(rate >= floor) {
		t.Errorf("cache hit rate %d/%d, want >= %.2f", hits, hits+misses, floor)
	}
}

// checkPrometheus requires the text exposition to carry the job-latency
// histogram that Retry-After is computed from.
func checkPrometheus(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Get(url + "/metricsz?format=prometheus")
	if err != nil {
		t.Fatalf("prometheus scrape: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("prometheus scrape: %v", err)
	}
	if !regexp.MustCompile(`(?m)^# TYPE serve_job_run_ns histogram$`).Match(body) {
		t.Errorf("%s: no serve_job_run_ns histogram in the prometheus exposition:\n%s", url, body)
	}
}

// lastPhase returns the detail of a job's last dist_phase flight event.
func lastPhase(pm service.Postmortem) string {
	phase := ""
	for _, ev := range pm.Events {
		if ev.Kind == "dist_phase" {
			phase = ev.Detail
		}
	}
	return phase
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

func asJSON(v any) string {
	b, _ := json.MarshalIndent(v, "", "  ")
	return string(b)
}

// phase is what one load run saw.
type phase struct {
	views      []service.JobView // each job's terminal view
	requests   int64             // HTTP requests the jobs made, 429s included
	rejections int               // 429s drawn
	peak       int               // most admitted Run calls open at one instant
}

// load starts clients goroutines that each run jobs copies of spec one
// after another, retrying 429s, and returns when all have finished. A job
// whose Run fails is a test error and is missing from the views.
func load(t *testing.T, url string, clients, jobs int, spec service.JobSpec) phase {
	t.Helper()
	var requests countingTransport
	cl := service.NewClient(url)
	cl.HTTPClient = &http.Client{Transport: &requests}
	var (
		mu    sync.Mutex
		p     phase
		spans []span
		wg    sync.WaitGroup
	)
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range jobs {
				v, ran, rejected, err := runWithRetry(cl, spec)
				mu.Lock()
				p.rejections += rejected
				if err == nil {
					p.views = append(p.views, v)
					spans = append(spans, ran)
				}
				mu.Unlock()
				if err != nil {
					t.Errorf("%s %s job: %v", spec.Circuit, spec.Engine, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	p.requests, p.peak = requests.n.Load(), peakOverlap(spans)
	t.Logf("%d x %d %s %s/%s jobs: %d requests, %d 429s, peak in-flight %d",
		clients, jobs, spec.Circuit, spec.Model, spec.Engine, p.requests, p.rejections, p.peak)
	return p
}

// countingTransport counts the requests made through it.
type countingTransport struct{ n atomic.Int64 }

// RoundTrip counts the request and forwards it to the default transport.
func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return http.DefaultTransport.RoundTrip(r)
}

// span is the interval of one admitted Run call.
type span struct{ start, end time.Time }

// peakOverlap returns the largest number of spans open at one instant.
func peakOverlap(spans []span) int {
	type edge struct {
		at    time.Time
		delta int
	}
	edges := make([]edge, 0, 2*len(spans))
	for _, sp := range spans {
		edges = append(edges, edge{sp.start, 1}, edge{sp.end, -1})
	}
	sort.Slice(edges, func(i, k int) bool { return edges[i].at.Before(edges[k].at) })
	open, peak := 0, 0
	for _, e := range edges {
		open += e.delta
		peak = max(peak, open)
	}
	return peak
}

// The 429 backoff bounds: one honoured Retry-After sleep, and a job's
// total backoff before its submission fails.
const (
	maxRetryWait = 2 * time.Second
	maxRetryTime = 30 * time.Second
)

// runWithRetry runs a job to its terminal view with Client.Run, backing
// off on 429 for the server's Retry-After hint — capped per sleep by
// maxRetryWait, jittered by up to half the sleep so rejected clients
// don't re-converge on the same instant, and bounded in total by
// maxRetryTime so a saturated server fails the job instead of
// livelocking the test. ran is the interval of the Run call that was
// admitted, and rejected the number of 429s drawn on the way.
func runWithRetry(cl *service.Client, spec service.JobSpec) (v service.JobView, ran span, rejected int, err error) {
	var waited time.Duration
	for ; ; rejected++ {
		ran.start = time.Now()
		v, err = cl.Run(context.Background(), spec, 0)
		ran.end = time.Now()
		var qf *service.QueueFullError
		if !errors.As(err, &qf) {
			return v, ran, rejected, err
		}
		wait := min(qf.RetryAfter, maxRetryWait)
		wait += time.Duration(rand.Int63n(int64(wait)/2 + 1))
		if waited+wait > maxRetryTime {
			return v, ran, rejected + 1, fmt.Errorf("429 retry budget %s exhausted after %s of backoff: %w", maxRetryTime, waited, err)
		}
		time.Sleep(wait)
		waited += wait
	}
}

// daemon is a csimd child process: the test binary re-executed with
// childEnv set. The tests run one after another, so at most three run at
// once.
type daemon struct {
	name           string
	url            string // http://host:port, from the startup line
	cmd            *exec.Cmd
	stdout, stderr *output
	exited         chan struct{} // closed once err is set
	err            error         // the process's exit, from cmd.Wait
}

// serveLine is csimd's startup line on stdout, server or coordinator.
var serveLine = regexp.MustCompile(`(?m)^csimd: +(?:serving|coordinating) (http://[^/\s]+)/`)

// startDaemon starts csimd on a free loopback port with args and returns
// once it serves. The process is killed at the end of the test if it is
// still running; if the test failed, its stdout and stderr are logged.
func startDaemon(t *testing.T, name string, args ...string) *daemon {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{
		name:   name,
		cmd:    exec.Command(exe, append([]string{"-addr", "127.0.0.1:0"}, args...)...),
		stdout: newOutput(),
		stderr: newOutput(),
		exited: make(chan struct{}),
	}
	d.cmd.Env = append(os.Environ(), childEnv+"=1")
	d.cmd.Stdout, d.cmd.Stderr = d.stdout, d.stderr
	// The child exits when the write end of this pipe closes (TestMain).
	if _, err := d.cmd.StdinPipe(); err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	t.Cleanup(func() {
		d.kill()
		if t.Failed() {
			t.Logf("%s stdout:\n%s\n%s stderr:\n%s", name, d.stdout, name, d.stderr)
		}
	})
	timeout := time.After(time.Minute)
	for {
		if m := serveLine.FindStringSubmatch(d.stdout.String()); m != nil {
			d.url = m[1]
			return d
		}
		select {
		case <-d.stdout.wrote:
		case <-d.exited:
			t.Fatalf("%s exited before serving: %v\n%s", name, d.err, d.stderr)
		case <-timeout:
			t.Fatalf("%s printed no serving line in a minute", name)
		}
	}
}

// drain sends SIGTERM and requires the process to print "drained
// cleanly" and exit 0.
func (d *daemon) drain(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM %s: %v", d.name, err)
	}
	<-d.exited
	if d.err != nil {
		t.Errorf("%s after SIGTERM: %v, want exit 0", d.name, d.err)
	}
	if !strings.Contains(d.stdout.String(), "drained cleanly") {
		t.Errorf(`%s never printed "drained cleanly"`, d.name)
	}
}

// kill ends the process with SIGKILL, if it still runs, and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // os.ErrProcessDone once it has exited
	<-d.exited
}

// output collects what a child writes to one stream; the test reads it
// while the child runs.
type output struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	wrote chan struct{} // a token after each write, for a reader waiting on a line
}

func newOutput() *output { return &output{wrote: make(chan struct{}, 1)} }

func (o *output) Write(p []byte) (int, error) {
	o.mu.Lock()
	n, err := o.buf.Write(p)
	o.mu.Unlock()
	select {
	case o.wrote <- struct{}{}:
	default:
	}
	return n, err
}

func (o *output) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.String()
}
