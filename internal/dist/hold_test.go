package dist

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/iscas"
	"repro/internal/jobid"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/service"
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

// TestShardIsOneRequest: a shard that ends within cfg.Poll costs the
// coordinator one request, the submission its worker held open.
func TestShardIsOneRequest(t *testing.T) {
	log := &shardLog{}
	cl, _, _ := startCluster(t, 2, func(cfg *Config) {
		cfg.Poll = 30 * time.Second
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
func oneWorker(t *testing.T, cfg service.Config, poll time.Duration) (*Coordinator, *service.Client, *shardLog) {
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
		Poll:          poll,
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
	coord, wcl, log := oneWorker(t, service.Config{Workers: 1, Obs: &obs.Observer{Metrics: reg}}, 10*time.Millisecond)
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
	coord, _, log := oneWorker(t, service.Config{Workers: 1}, 30*time.Second)
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
