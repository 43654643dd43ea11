package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/iscas"
	"repro/internal/jobid"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/vectors"
)

// shardLog is the coordinator's transport to its workers, noting every
// request that names a job (health probes do not) as "<METHOD> <job id>".
type shardLog struct {
	mu   sync.Mutex
	reqs []string
}

func (l *shardLog) RoundTrip(r *http.Request) (*http.Response, error) {
	if id := r.Header.Get(service.JobIDHeader); id != "" {
		l.mu.Lock()
		l.reqs = append(l.reqs, r.Method+" "+id)
		l.mu.Unlock()
	}
	return http.DefaultTransport.RoundTrip(r)
}

// count returns how many logged requests used method ("" for any) on job
// id ("" for any).
func (l *shardLog) count(method, id string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, r := range l.reqs {
		if strings.HasPrefix(r, method) && (id == "" || strings.HasSuffix(r, " "+id)) {
			n++
		}
	}
	return n
}

// TestShardIsOneRequest: a shard that ends within the worker's longest
// hold costs the coordinator one request, the submission its worker held
// open.
func TestShardIsOneRequest(t *testing.T) {
	log := &shardLog{}
	cl, _, _ := startCluster(t, 2, func(cfg *Config) {
		cfg.HTTPClient = &http.Client{Transport: log}
	})
	v, err := cl.Run(ctxT(t), service.JobSpec{Circuit: "s1494", Engine: "csim-grid", Random: 64, Seed: 3}, 2*time.Millisecond)
	if err != nil || v.Status != service.StatusDone || v.Result == nil {
		t.Fatalf("run: %v / %+v", err, v)
	}
	k := v.Result.Workers
	if k < 2 {
		t.Fatalf("job ran as %d shard(s); the test wants a real fan-out", k)
	}
	if posts, all := log.count(http.MethodPost, ""), log.count("", ""); posts != k || all != k {
		t.Errorf("%d shards took %d requests (%d POST): %v, want one POST each", k, all, posts, log.reqs)
	}
}

// oneWorker brings up a worker with the given config and a coordinator
// over it alone, whose requests go through the returned log.
func oneWorker(t *testing.T, cfg service.Config) (*Coordinator, *service.Client, *shardLog) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s := service.New(cfg)
	if err := s.Start(); err != nil {
		t.Fatalf("worker Start: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	log := &shardLog{}
	coord, err := New(Config{
		Workers:       []string{"http://" + s.Addr()},
		ProbeInterval: 20 * time.Millisecond,
		HTTPClient:    &http.Client{Transport: log},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	return coord, service.NewClient("http://" + s.Addr()), log
}

// TestAttemptAdoptsLiveShard: a shard whose ID is already live on the
// worker — an earlier delivery of it — draws a 409 on submission and is
// adopted: the coordinator holds a status request on the copy that is
// there and takes its result, and the worker runs the shard once.
func TestAttemptAdoptsLiveShard(t *testing.T) {
	reg := obs.NewRegistry()
	coord, wcl, log := oneWorker(t, service.Config{Workers: 1, Obs: &obs.Observer{Metrics: reg}})
	ctx := ctxT(t)

	// The worker's one slot is busy, so the shard stays queued — live —
	// until the test frees it.
	busy, err := wcl.Submit(ctx, service.JobSpec{Circuit: "s5378", Engine: "csim", Random: 200000})
	if err != nil {
		t.Fatal(err)
	}
	spec := shardSpec(&service.JobSpec{Circuit: "s298", Random: 64, Seed: 3}, 0, 2, time.Minute)
	id := jobid.Shard("adopt", 0, 2, shardHash("s298", spec))
	if _, err := wcl.Submit(obs.WithJobID(ctx, id), *spec); err != nil {
		t.Fatalf("first delivery of the shard: %v", err)
	}

	type outcome struct {
		rv  *service.ResultView
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rv, err := coord.attemptShard(ctx, coord.reg.workers[0], id, spec)
		done <- outcome{rv, err}
	}()
	for deadline := time.Now().Add(10 * time.Second); log.count(http.MethodGet, id) == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("the coordinator never held a status request on the adopted shard: %v", log.reqs)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := wcl.Cancel(ctx, busy.ID); err != nil {
		t.Fatal(err)
	}
	o := <-done
	if o.err != nil || o.rv == nil || o.rv.Detections == nil {
		t.Fatalf("adopted shard: %v / %+v", o.err, o.rv)
	}
	if n := log.count(http.MethodPost, id); n != 1 {
		t.Errorf("%d submissions of the shard, want the one that drew the 409", n)
	}
	if p, _ := reg.Get("serve.jobs_submitted"); p.Value != 2 {
		t.Errorf("worker admitted %d jobs, want 2: the busy job and one copy of the shard", p.Value)
	}
}

// TestAttemptReshipsAfterBenchKeyMiss: a worker that no longer has a
// circuit the coordinator shipped answers the by-key submission with the
// bench-key-miss 400; the attempt ships the text again and completes.
func TestAttemptReshipsAfterBenchKeyMiss(t *testing.T) {
	coord, _, log := oneWorker(t, service.Config{Workers: 1})
	ckt, err := iscas.Get("s298")
	if err != nil {
		t.Fatal(err)
	}
	text := netlist.BenchString(ckt)
	key := service.InlineKey(text)
	w := coord.reg.workers[0]
	w.markShipped(key) // as far as the coordinator knows; the worker's cache is empty

	spec := shardSpec(&service.JobSpec{Bench: text, BenchName: "s298", Random: 64, Seed: 3}, 1, 2, time.Minute)
	id := jobid.Shard("reship", 1, 2, shardHash(key, spec))
	rv, err := coord.attemptShard(ctxT(t), w, id, spec)
	if err != nil || rv == nil || rv.Detections == nil {
		t.Fatalf("attempt after a bench-key miss: %v / %+v", err, rv)
	}
	if posts, all := log.count(http.MethodPost, id), log.count("", ""); posts != 2 || all != 2 {
		t.Errorf("requests %v, want the refused by-key POST and the held one that shipped the text", log.reqs)
	}
	if !w.benchShipped(key) {
		t.Error("the re-shipped circuit is not marked shipped")
	}
}

// panicRunner is a worker whose every job panics.
type panicRunner struct{}

func (panicRunner) RunJob(context.Context, *service.RunRequest) (*service.ResultView, error) {
	panic("poisoned shard")
}

// TestShardPanicFailsTheJobOnce: a shard whose run panicked on a worker
// would panic on the next one too, so the job fails with the panic and
// nothing is re-queued.
func TestShardPanicFailsTheJobOnce(t *testing.T) {
	var addrs []string
	for i := 0; i < 2; i++ {
		s := service.New(service.Config{Addr: "127.0.0.1:0", Workers: 2, Runner: panicRunner{}})
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		addrs = append(addrs, "http://"+s.Addr())
	}
	reg := obs.NewRegistry()
	coord, err := New(Config{Workers: addrs, ProbeInterval: 20 * time.Millisecond, Obs: &obs.Observer{Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	front := service.New(service.Config{Addr: "127.0.0.1:0", Workers: 1, Runner: coord, Obs: &obs.Observer{Metrics: reg}})
	if err := front.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = front.Close() })

	v, err := service.NewClient("http://"+front.Addr()).Run(ctxT(t),
		service.JobSpec{Circuit: "s1494", Engine: "csim-grid", Random: 64}, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != service.StatusFailed || !strings.Contains(v.Error, service.PanicErrorPrefix+"poisoned shard") {
		t.Fatalf("job over panicking workers: status %s, error %q, want failed with the panic", v.Status, v.Error)
	}
	if p, _ := reg.Get("dist.shards_requeued"); p.Value != 0 {
		t.Errorf("dist.shards_requeued = %d, want 0: a panic is not retried", p.Value)
	}
	if p, _ := reg.Get("dist.shards_failed"); p.Value < 1 {
		t.Errorf("dist.shards_failed = %d, want at least 1", p.Value)
	}
}

// garbler is the coordinator's transport to its workers; it passes the
// first shard reply that carries a detections payload through garble,
// and everything else through unchanged.
type garbler struct {
	garble func(body []byte, v *service.JobView) ([]byte, error)
	done   atomic.Bool
}

func (g *garbler) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err != nil || resp.StatusCode != http.StatusOK || r.Header.Get(service.JobIDHeader) == "" || g.done.Load() {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var v service.JobView
	if json.Unmarshal(body, &v) == nil && v.Result != nil && v.Result.Detections != nil && g.done.CompareAndSwap(false, true) {
		if body, err = g.garble(body, &v); err != nil {
			return nil, err
		}
	}
	resp.Body, resp.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
	return resp, nil
}

// TestGarbledShardPayloadRequeues: a shard reply whose detections name a
// fault outside the universe, or whose body is cut in half, fails that
// attempt, not the job; the shard is re-queued once and the merged
// result is a local csim-grid run's.
func TestGarbledShardPayloadRequeues(t *testing.T) {
	ckt, err := iscas.Get("s1494")
	if err != nil {
		t.Fatal(err)
	}
	u := faults.StuckCollapsed(ckt)
	want, _, err := engine.Run(context.Background(), engine.CsimGrid, u, vectors.Random(ckt, 64, 3), engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		detail string // what the requeue event must name
		garble func(body []byte, v *service.JobView) ([]byte, error)
	}{
		{"fault_out_of_range", "out of range", func(_ []byte, v *service.JobView) ([]byte, error) {
			dv := v.Result.Detections
			dv.IDs, dv.At = append(dv.IDs, int32(dv.Faults)), append(dv.At, 0)
			return json.Marshal(v)
		}},
		{"truncated_body", "unexpected EOF", func(body []byte, _ *service.JobView) ([]byte, error) {
			return body[:len(body)/2], nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := &garbler{garble: tc.garble}
			cl, _, reg := startCluster(t, 2, func(cfg *Config) {
				cfg.HTTPClient = &http.Client{Transport: g}
			})
			v, err := cl.Run(ctxT(t), service.JobSpec{
				Circuit: "s1494", Engine: "csim-grid", Workers: 2,
				Random: 64, Seed: 3, ReturnDetections: true,
			}, 0)
			if err != nil || v.Status != service.StatusDone || v.Result == nil {
				t.Fatalf("run: %v / %+v", err, v)
			}
			if !g.done.Load() {
				t.Fatal("no shard reply was garbled")
			}
			if v.Result.Detected != want.NumDet || v.Result.PotOnly != want.NumPotOnly() {
				t.Errorf("detected %d, pot-only %d; local csim-grid %d, %d", v.Result.Detected, v.Result.PotOnly, want.NumDet, want.NumPotOnly())
			}
			got, err := v.Result.Detections.Result(u)
			if err != nil {
				t.Fatal(err)
			}
			if diff := want.Diff(got); diff != "" {
				t.Errorf("result after a garbled shard differs from a local csim-grid run:\n%s", diff)
			}
			if p, _ := reg.Get("dist.shards_requeued"); p.Value != 1 {
				t.Errorf("dist.shards_requeued = %d, want 1", p.Value)
			}
			pm, err := cl.Debug(ctxT(t), v.ID)
			if err != nil {
				t.Fatal(err)
			}
			requeues := 0
			for _, ev := range pm.Events {
				if ev.Kind == "requeue" {
					requeues++
					if !strings.Contains(ev.Detail, tc.detail) {
						t.Errorf("requeue event %q, want %q", ev.Detail, tc.detail)
					}
				}
			}
			if requeues != 1 {
				t.Errorf("%d requeue events in the flight record, want 1", requeues)
			}
		})
	}
}
