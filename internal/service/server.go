package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobid"
	"repro/internal/obs"
)

// Config tunes a Server. The zero value gets sensible defaults from
// Start.
type Config struct {
	// Addr is the listen address (":8416" style; ":0" picks a free port).
	Addr string
	// Workers is the worker-pool size (default runtime.NumCPU).
	Workers int
	// QueueDepth bounds the admission queue (default 256). In-flight
	// capacity — admitted but unfinished jobs — is Workers + QueueDepth.
	QueueDepth int
	// MaxInlineBytes bounds an inline .bench or vectors body (default
	// 4 MiB); an oversized submission is answered with 413.
	MaxInlineBytes int64
	// DefaultTimeout bounds a job's run time when the spec names none
	// (default 5m); MaxTimeout caps spec-requested timeouts (default
	// 30m).
	DefaultTimeout time.Duration
	// MaxTimeout caps the per-job timeout a spec may request.
	MaxTimeout time.Duration
	// CacheSize bounds the compiled-circuit cache (default 64 circuits).
	CacheSize int
	// Retained bounds finished jobs kept for late lookups and /debug
	// (default 2048); beyond it the oldest finished jobs are evicted. A
	// held request has its terminal view delivered on the request that
	// waited for it, so retention is not what a caller's result rides on.
	Retained int
	// EngineWorkers is the csim-C worker count and the csim-grid
	// scheduler's processor budget when a spec leaves Workers at 0, and
	// the worker bound of every pinned grid shard (default
	// runtime.NumCPU).
	EngineWorkers int
	// Obs is the observability bundle. Nil runs with a fresh registry
	// (metrics always on — the service serves them) and no tracer.
	Obs *obs.Observer
	// Log is the structured logger; nil disables service logging at the
	// zero-cost nil fast path.
	Log *obs.Logger
	// FlightEvents bounds each job's flight-recorder ring (default
	// obs.DefaultFlightEvents = 256).
	FlightEvents int
	// Runner substitutes the job execution strategy. Nil runs jobs on
	// the in-process engines; a distributed coordinator injects itself
	// here to fan admitted jobs out to a worker fleet.
	Runner JobRunner
}

// withDefaults fills the zero fields.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8416"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxInlineBytes <= 0 {
		c.MaxInlineBytes = 4 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Minute
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Minute
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 64
	}
	if c.Retained <= 0 {
		c.Retained = 2048
	}
	if c.EngineWorkers <= 0 {
		c.EngineWorkers = runtime.NumCPU()
	}
	if c.Obs == nil {
		c.Obs = &obs.Observer{Metrics: obs.NewRegistry()}
	}
	if c.Obs.Metrics == nil {
		c.Obs.Metrics = obs.NewRegistry()
	}
	if c.Log == nil {
		// A logger attached to the Observer bundle works too.
		c.Log = c.Obs.Log
	}
	if c.FlightEvents <= 0 {
		c.FlightEvents = obs.DefaultFlightEvents
	}
	return c
}

// Server is the fault-simulation service: HTTP admission in front of a
// bounded queue and a worker pool over the repository's engines, with a
// compiled-circuit cache and full metrics. Create with New, run with
// Start, stop with Drain (graceful) or Close (hard).
type Server struct {
	cfg    Config
	ob     *obs.Observer
	log    *obs.Logger
	cache  *Cache
	q      *jobQueue
	runner JobRunner

	mu       sync.Mutex
	jobs     map[string]*job
	finished []string // finished job IDs, oldest first (retention eviction)
	seq      int64

	draining atomic.Bool
	stopped  atomic.Bool
	// cancelWorkers tears down the worker base context (Close; Drain
	// after its grace period).
	cancelWorkers func()
	workerWG      sync.WaitGroup
	httpSrv       *http.Server
	ln            net.Listener

	mQueueDepth *obs.Gauge
	mInflight   *obs.Gauge
	mSubmitted  *obs.Counter
	mRejected   *obs.Counter
	mCompleted  *obs.Counter
	mFailed     *obs.Counter
	mCancelled  *obs.Counter
	mPanics     *obs.Counter
	mHolds      *obs.Gauge
	mHeldSubmit *obs.Counter
	hQueueNS    *obs.Histogram
	hRunNS      *obs.Histogram
	hTotalNS    *obs.Histogram
}

// latencyBuckets is the job-latency histogram layout: 16 µs to ~17 s,
// ×4 per bucket.
var latencyBuckets = obs.ExpBuckets(16384, 4, 11)

// New builds a server; Start brings it up.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Obs.Metrics
	s := &Server{
		cfg:   cfg,
		ob:    cfg.Obs,
		log:   cfg.Log,
		cache: NewCache(cfg.CacheSize, reg),
		q:     newJobQueue(cfg.QueueDepth),
		jobs:  map[string]*job{},

		mQueueDepth: reg.Gauge("serve.queue_depth"),
		mInflight:   reg.Gauge("serve.inflight"),
		mSubmitted:  reg.Counter("serve.jobs_submitted"),
		mRejected:   reg.Counter("serve.jobs_rejected"),
		mCompleted:  reg.Counter("serve.jobs_completed"),
		mFailed:     reg.Counter("serve.jobs_failed"),
		mCancelled:  reg.Counter("serve.jobs_cancelled"),
		mPanics:     reg.Counter("serve.job_panics"),
		mHolds:      reg.Gauge("serve.holds"),
		mHeldSubmit: reg.Counter("serve.held_submits"),
		hQueueNS:    reg.Histogram("serve.job_queue_ns", latencyBuckets),
		hRunNS:      reg.Histogram("serve.job_run_ns", latencyBuckets),
		hTotalNS:    reg.Histogram("serve.job_total_ns", latencyBuckets),
	}
	s.runner = cfg.Runner
	if s.runner == nil {
		s.runner = localRunner{}
	}
	reg.Gauge("serve.workers").Set(int64(cfg.Workers))
	reg.Gauge("serve.queue_capacity").Set(int64(cfg.QueueDepth))
	return s
}

// Start binds the listener, launches the worker pool, and serves HTTP in
// the background. It returns once the server accepts connections.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("service: listen %s: %w", s.cfg.Addr, err)
	}
	s.ln = ln
	ctx, cancel := context.WithCancel(context.Background())
	s.cancelWorkers = cancel
	for i := 0; i < s.cfg.Workers; i++ {
		s.workerWG.Add(1)
		go func(slot int) {
			defer s.workerWG.Done()
			s.workerLoop(ctx, slot)
		}(i)
	}
	s.httpSrv = &http.Server{Handler: s.Handler()}
	//simlint:ignore goroutinelife the accept pump's lifetime is the listener's; Stop closes it via httpSrv.Shutdown
	go func() { _ = s.httpSrv.Serve(ln) }()
	return nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

// Handler builds the service's HTTP mux: the job API plus the
// observability endpoints (/metricsz, /debug/pprof) and the
// health probes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/jobs", s.handleJobs)
	mux.HandleFunc("/api/v1/jobs/", s.handleJob)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.draining.Load() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	obs.Register(mux, s.ob.Metrics)
	return mux
}

// Drain gracefully shuts the server down: admissions stop (submit → 503,
// /readyz → 503), every already-admitted job — queued or running — is
// finished, then the workers and the HTTP listener stop. If ctx expires
// first, outstanding jobs are cancelled and Drain returns ctx's error
// after the workers exit.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.q.close()
	s.log.Info("server draining",
		slog.String("phase", "drain"),
		slog.Int("queued", s.q.depth()))

	done := make(chan struct{})
	go func() { s.workerWG.Wait(); close(done) }()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.log.Warn("drain grace period expired, cancelling outstanding jobs",
			slog.String("phase", "drain"))
		s.cancelOutstanding()
		s.cancelWorkers()
		<-done
	}
	s.shutdownHTTP()
	s.stopped.Store(true)
	s.log.Info("server drained", slog.String("phase", "drain"))
	return err
}

// Close hard-stops the server: cancels every job, closes the queue and
// the listener, and waits for the workers.
func (s *Server) Close() error {
	s.draining.Store(true)
	s.q.close()
	s.cancelOutstanding()
	if s.cancelWorkers != nil {
		s.cancelWorkers()
	}
	s.workerWG.Wait()
	s.shutdownHTTP()
	s.stopped.Store(true)
	return nil
}

func (s *Server) shutdownHTTP() {
	if s.httpSrv == nil {
		return
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.httpSrv.Shutdown(sctx)
}

// cancelOutstanding cancels every live job (queue tombstones included).
func (s *Server) cancelOutstanding() {
	now := time.Now()
	for _, j := range s.liveJobs() {
		s.q.remove(j.id)
		j.requestCancel(now)
	}
}

// liveJobs snapshots the non-terminal jobs.
func (s *Server) liveJobs() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*job
	for _, j := range s.jobs {
		if !j.currentStatus().Terminal() {
			out = append(out, j)
		}
	}
	return out
}

// workerLoop pops and executes jobs until the queue closes.
func (s *Server) workerLoop(ctx context.Context, slot int) {
	for {
		j, ok := s.q.pop()
		if !ok {
			return
		}
		s.mQueueDepth.Set(int64(s.q.depth()))
		s.runJob(ctx, slot, j)
	}
}

// runJob executes one admitted job on a worker slot.
func (s *Server) runJob(ctx context.Context, slot int, j *job) {
	now := time.Now()
	timeout := s.cfg.DefaultTimeout
	if j.spec.TimeoutMS > 0 {
		timeout = time.Duration(j.spec.TimeoutMS) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	// The correlation ID rides the job context so anything downstream
	// (engine logs, a future coordinator fan-out) can recover it.
	jctx, cancel := context.WithTimeout(obs.WithJobID(ctx, j.id), timeout)
	defer cancel()
	if !j.setRunning(now, cancel) {
		// Cancelled while queued and already finished; nothing to run.
		return
	}
	s.hQueueNS.Observe(now.Sub(j.submitted).Nanoseconds())
	s.mInflight.Add(1)
	defer s.mInflight.Add(-1)

	jlog := s.log.With(
		slog.String("job_id", j.id),
		slog.String("engine", j.spec.Engine),
		slog.String("circuit", circuitLabel(&j.spec)))
	j.flight.Recordf("run_start", "worker slot %d picked the job up after %s queued",
		slot, now.Sub(j.submitted).Round(time.Microsecond))
	jlog.Info("job running",
		slog.String("phase", "run"),
		slog.Int("worker_slot", slot),
		slog.Duration("queued_for", now.Sub(j.submitted)))

	// The submit handler compiled the circuit at admission and pinned it
	// on the job, so cache eviction between admission and execution can't
	// fail the run.
	cc := j.compiled()

	// One engine-metrics namespace and one trace lane per worker slot:
	// bounded registry growth no matter how many jobs run. The logger and
	// flight recorder are per-job, so engine shard events correlate.
	prefix := fmt.Sprintf("serve.worker%d.", slot)
	engineOb := &obs.Observer{
		Metrics: s.ob.Metrics,
		Tracer:  s.ob.Tracer,
		Faults:  s.ob.Faults,
		Log:     jlog,
		Flight:  j.flight,
	}
	sp := s.ob.SpanTID(fmt.Sprintf("%s/%s/%s", j.id, j.spec.Engine, circuitLabel(&j.spec)), slot+1)
	rv, err := s.runContained(jctx, &RunRequest{
		ID: j.id, Spec: &j.spec, CC: cc,
		Obs: engineOb, ObsPrefix: prefix,
		EngineWorkers: s.cfg.EngineWorkers,
		SetPhase:      j.setDistPhase,
	})
	sp.End()

	finished := time.Now()
	runNS := finished.Sub(now).Nanoseconds()
	s.hRunNS.Observe(runNS)
	s.hTotalNS.Observe(finished.Sub(j.submitted).Nanoseconds())
	var pe *panicError
	switch {
	case errors.As(err, &pe):
		s.mPanics.Inc()
		j.flight.Recordf("panic", "%v\n%s", pe.value, pe.stack)
		j.flight.Record("finish", "failed: "+pe.Error())
		s.finishJob(j, StatusFailed, nil, pe.Error())
		s.dumpPostmortem(jlog, j)
	case err == nil:
		rv.CacheHit = j.cacheHit
		j.flight.Recordf("finish", "done: %d/%d detected in %s",
			rv.Detected, rv.Faults, time.Duration(rv.RunNS).Round(time.Microsecond))
		s.finishJob(j, StatusDone, rv, "")
		jlog.Info("job done",
			slog.String("phase", "finish"),
			slog.Int("detected", rv.Detected),
			slog.Int("faults", rv.Faults),
			slog.Int64("run_ns", rv.RunNS),
			slog.Bool("cache_hit", rv.CacheHit))
	case errors.Is(err, context.Canceled):
		j.flight.Record("finish", "cancelled while running")
		s.finishJob(j, StatusCancelled, nil, "cancelled while running")
		s.dumpPostmortem(jlog, j)
	case errors.Is(err, context.DeadlineExceeded):
		j.flight.Recordf("finish", "timeout after %s", timeout)
		s.finishJob(j, StatusFailed, nil, fmt.Sprintf("timeout after %s", timeout))
		s.dumpPostmortem(jlog, j)
	default:
		j.flight.Recordf("finish", "failed: %v", err)
		s.finishJob(j, StatusFailed, nil, err.Error())
		s.dumpPostmortem(jlog, j)
	}
}

// PanicErrorPrefix starts the error of a job that failed because its run
// panicked. The fault is in the job or the engine, not the node, so a
// coordinator that reads it on a shard fails the job instead of trying
// the shard on the next worker.
const PanicErrorPrefix = "panic: "

// panicError is a panic recovered at the job boundary.
type panicError struct {
	value any
	stack []byte
}

// Error renders the panic value behind PanicErrorPrefix.
func (e *panicError) Error() string { return fmt.Sprintf("%s%v", PanicErrorPrefix, e.value) }

// runContained runs the job and turns a panic on the runner's goroutine
// into an error carrying the stack: the job fails, the worker slot and
// the process keep serving. A panic on a goroutine the engine started
// itself is out of its reach.
func (s *Server) runContained(ctx context.Context, req *RunRequest) (rv *ResultView, err error) {
	defer func() {
		if p := recover(); p != nil {
			rv, err = nil, &panicError{value: p, stack: debug.Stack()}
		}
	}()
	return s.runner.RunJob(ctx, req)
}

// dumpPostmortem logs a failed/timed-out/cancelled job's flight
// recorder as one structured record — the same payload GET
// /api/v1/jobs/{id}/debug serves, pushed into the log stream so the
// evidence survives job retention eviction.
func (s *Server) dumpPostmortem(jlog *obs.Logger, j *job) {
	if jlog == nil {
		return
	}
	pm := j.postmortem()
	jlog.Error("job postmortem",
		slog.String("phase", "postmortem"),
		slog.String("status", string(pm.Status)),
		slog.String("error", pm.Error),
		slog.Int64("dropped_events", pm.DroppedEvents),
		slog.Any("events", pm.Events))
}

// finishJob records the terminal state, bumps the status counters, and
// applies the retention bound.
func (s *Server) finishJob(j *job, status Status, rv *ResultView, errMsg string) {
	j.finish(status, time.Now(), rv, errMsg)
	switch j.currentStatus() {
	case StatusDone:
		s.mCompleted.Inc()
	case StatusFailed:
		s.mFailed.Inc()
	case StatusCancelled:
		s.mCancelled.Inc()
	}
	s.mu.Lock()
	s.finished = append(s.finished, j.id)
	for len(s.finished) > s.cfg.Retained {
		evict := s.finished[0]
		s.finished = s.finished[1:]
		delete(s.jobs, evict)
	}
	s.mu.Unlock()
}

func circuitLabel(spec *JobSpec) string {
	if spec.Circuit != "" {
		return spec.Circuit
	}
	return spec.BenchName
}

// handleJobs serves POST /api/v1/jobs (submit) and GET /api/v1/jobs
// (list).
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.handleSubmit(w, r)
	case http.MethodGet:
		s.handleList(w)
	default:
		writeError(w, http.StatusMethodNotAllowed, "use POST to submit or GET to list", nil)
	}
}

// handleSubmit admits one job: decode (oversized body → 413), validate
// (→ 400), look for room in the queue (none → 429 + Retry-After), compile
// through the cache (malformed netlist → structured 400), then enqueue
// (full after all → the same 429). With ?wait=<duration>
// the admitted job's request is then held like a status request: 200 and
// the terminal view if the job ends inside the wait, 202 and the live
// one if not. Rejections are never held.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining", nil)
		return
	}
	wait, err := waitParam(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), nil)
		return
	}
	// The JSON framing adds overhead beyond the inline netlist itself;
	// allow a fixed envelope on top of the configured inline bound.
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxInlineBytes+64<<10)
	var spec JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit), nil)
			return
		}
		writeError(w, http.StatusBadRequest, "malformed JSON body: "+err.Error(), nil)
		return
	}
	if int64(len(spec.Bench)) > s.cfg.MaxInlineBytes {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("inline netlist is %d bytes, limit %d", len(spec.Bench), s.cfg.MaxInlineBytes), nil)
		return
	}
	if int64(len(spec.Vectors)) > s.cfg.MaxInlineBytes {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("inline vectors are %d bytes, limit %d", len(spec.Vectors), s.cfg.MaxInlineBytes), nil)
		return
	}
	if err := spec.normalize(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), nil)
		return
	}

	// A full queue refuses the job before the lookup below parses,
	// verifies and caches its netlist, evicting a circuit some queued job
	// will want back: a saturated node pays nothing for what it turns away.
	if s.q.full() {
		s.rejectFull(w, "", &spec)
		return
	}

	// Compile (or hit the cache) at admission so malformed netlists are
	// rejected with diagnostics immediately instead of failing the job
	// later, and so the queue only ever holds runnable work.
	sp := s.ob.Span("compile/" + circuitLabel(&spec))
	cc, hit, err := s.cache.Lookup(&spec)
	sp.End()
	if err != nil {
		var ce *CompileError
		if errors.As(err, &ce) {
			writeError(w, http.StatusBadRequest, ce.Msg, ce.Problems)
			return
		}
		writeError(w, http.StatusBadRequest, err.Error(), nil)
		return
	}
	// Vector validation needs the circuit's PI count, so it happens
	// post-compile; inline vector text errors are 400s too. Random
	// vectors cannot fail and are drawn once, on the worker.
	if spec.Vectors != "" {
		if _, err := BuildVectors(&spec, cc); err != nil {
			writeError(w, http.StatusBadRequest, err.Error(), nil)
			return
		}
	}

	// Correlation ID: accept one from the X-Csim-Job-Id header (a
	// coordinator fanning a job out names it once), else mint "j<seq>".
	// The admitted ID is echoed back in the same header and in the body.
	reqID := strings.TrimSpace(r.Header.Get(JobIDHeader))
	if reqID != "" && !jobid.Valid(reqID) {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("invalid %s %q: want 1-128 chars, alphanumeric then [alnum._-]", JobIDHeader, reqID), nil)
		return
	}
	s.mu.Lock()
	id := reqID
	if id != "" {
		if _, exists := s.jobs[id]; exists {
			s.mu.Unlock()
			writeError(w, http.StatusConflict,
				fmt.Sprintf("job %q already exists", id), nil)
			return
		}
	} else {
		// Client-supplied IDs may collide with the "j<seq>" spelling, so
		// minting skips over taken names.
		for {
			s.seq++
			id = jobid.Sequential(s.seq)
			if _, exists := s.jobs[id]; !exists {
				break
			}
		}
	}
	j := newJob(id, spec, cc, hit, time.Now())
	j.flight = obs.NewFlightRecorder(s.cfg.FlightEvents)
	s.jobs[id] = j
	s.mu.Unlock()

	cacheVerdict := "miss"
	if hit {
		cacheVerdict = "hit"
	}
	j.flight.Recordf("admitted", "engine %s, circuit %s, model %s", spec.Engine, circuitLabel(&spec), spec.Model)
	j.flight.Recordf("cache", "compiled-circuit cache %s for %s", cacheVerdict, circuitLabel(&spec))

	w.Header().Set(JobIDHeader, id)
	if !s.q.push(j) {
		// The queue filled between the check above and here.
		s.mu.Lock()
		delete(s.jobs, id)
		s.mu.Unlock()
		s.rejectFull(w, id, &spec)
		return
	}
	s.mSubmitted.Inc()
	s.mQueueDepth.Set(int64(s.q.depth()))
	j.flight.Recordf("queued", "position at enqueue %d", s.q.depth())
	s.log.Info("job admitted",
		slog.String("job_id", id),
		slog.String("phase", "admit"),
		slog.String("engine", spec.Engine),
		slog.String("circuit", circuitLabel(&spec)),
		slog.String("model", spec.Model),
		slog.Bool("cache_hit", hit))
	if wait > 0 {
		s.mHeldSubmit.Inc()
	}
	v := s.hold(r, j, wait)
	code := http.StatusAccepted
	if wait > 0 && v.Status.Terminal() {
		code = http.StatusOK
	}
	writeJSON(w, code, v)
}

// rejectFull answers a submission the queue has no room for: 429 with a
// Retry-After hint. id is empty when the job was turned away before it
// was given one.
func (s *Server) rejectFull(w http.ResponseWriter, id string, spec *JobSpec) {
	s.mRejected.Inc()
	retry := s.retryAfter()
	w.Header().Set("Retry-After", fmt.Sprintf("%d", retry))
	s.log.Warn("job rejected",
		slog.String("job_id", id),
		slog.String("phase", "admit"),
		slog.String("engine", spec.Engine),
		slog.Int("queue_depth", s.q.depth()),
		slog.Int("retry_after_s", retry))
	writeError(w, http.StatusTooManyRequests,
		fmt.Sprintf("queue full (%d queued); retry after %ds", s.q.depth(), retry), nil)
}

// retryAfter estimates, in whole seconds (>= 1, capped at 60), when a
// queue slot should free up: one queue's worth of the observed p90 job
// run time spread over the worker pool. Before any job has completed
// the histogram is empty and the estimate falls back to 1s.
func (s *Server) retryAfter() int {
	if s.hRunNS.Count() == 0 {
		return 1
	}
	p90 := s.hRunNS.Quantile(0.90)
	if p90 <= 0 {
		return 1
	}
	est := time.Duration(p90) * time.Duration(s.cfg.QueueDepth) / time.Duration(s.cfg.Workers) / 4
	secs := int(est / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// handleList serves job summaries sorted by ID.
func (s *Server) handleList(w http.ResponseWriter) {
	s.mu.Lock()
	views := make([]JobView, 0, len(s.jobs))
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobid.Less(jobs[i].id, jobs[k].id) })
	for _, j := range jobs {
		views = append(views, j.view())
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

// handleJob serves GET (status) and DELETE (cancel) on
// /api/v1/jobs/<id>, and GET /api/v1/jobs/<id>/debug (the
// flight-recorder postmortem).
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/api/v1/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" || (sub != "" && sub != "debug") {
		writeError(w, http.StatusNotFound, "no such job", nil)
		return
	}
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no such job %q", id), nil)
		return
	}
	w.Header().Set(JobIDHeader, id)
	if sub == "debug" {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "use GET for the postmortem", nil)
			return
		}
		writeJSON(w, http.StatusOK, j.postmortem())
		return
	}
	switch r.Method {
	case http.MethodGet:
		wait, err := waitParam(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error(), nil)
			return
		}
		writeJSON(w, http.StatusOK, s.hold(r, j, wait))
	case http.MethodDelete:
		s.cancelJob(w, j)
	default:
		writeError(w, http.StatusMethodNotAllowed, "use GET for status or DELETE to cancel", nil)
	}
}

// maxHold is the longest one request is kept open.
const maxHold = 30 * time.Second

// waitParam reads a request's ?wait=<duration>: 0 when it has none, at
// most maxHold, and an error for one that does not parse or is not
// positive — answering such a request at once would make a caller that
// asked to be held spin.
func waitParam(r *http.Request) (time.Duration, error) {
	if r.URL.RawQuery == "" {
		return 0, nil
	}
	q := r.URL.Query()
	if !q.Has("wait") {
		return 0, nil
	}
	d, err := time.ParseDuration(q.Get("wait"))
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("invalid wait %q: want a positive duration such as 500ms or 30s", q.Get("wait"))
	}
	return min(d, maxHold), nil
}

// hold snapshots the job for a response, first keeping the request open
// for up to d while the job is live: until it is terminal, d has passed
// or the caller has gone, so a caller learns of the end when it happens
// rather than at its next poll. A terminal view that leaves on a request
// that waited for it is a "delivered" flight event, so the record shows
// finish → answer. Closing the server finishes every live job, which
// releases the requests held on them.
func (s *Server) hold(r *http.Request, j *job, d time.Duration) JobView {
	if d <= 0 || j.currentStatus().Terminal() {
		return j.view()
	}
	began := time.Now()
	s.mHolds.Add(1)
	t := time.NewTimer(d)
	select {
	case <-j.done:
		j.flight.Recordf("delivered", "terminal view sent on the %s held for %s",
			r.Method, time.Since(began).Round(time.Microsecond))
	case <-t.C:
	case <-r.Context().Done():
	}
	t.Stop()
	s.mHolds.Add(-1)
	return j.view()
}

// cancelJob cancels a live job. A queued job is removed from the queue
// first — freeing its admission slot immediately — then finished as
// cancelled; a running job gets its context cancelled and reports
// cancelled when the engine notices.
func (s *Server) cancelJob(w http.ResponseWriter, j *job) {
	s.log.Info("job cancel requested",
		slog.String("job_id", j.id),
		slog.String("phase", "cancel"),
		slog.String("engine", j.spec.Engine))
	if s.q.remove(j.id) {
		j.requestCancel(time.Now())
		s.mCancelled.Inc()
		s.mQueueDepth.Set(int64(s.q.depth()))
		s.mu.Lock()
		s.finished = append(s.finished, j.id)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, j.view())
		return
	}
	j.requestCancel(time.Now())
	writeJSON(w, http.StatusOK, j.view())
}

// errorBody is the structured error response.
type errorBody struct {
	// Error is the one-line summary.
	Error string `json:"error"`
	// Problems carries individual diagnostics (netcheck output) when the
	// failure is a malformed netlist.
	Problems []string `json:"problems,omitempty"`
}

func writeError(w http.ResponseWriter, code int, msg string, problems []string) {
	writeJSON(w, code, errorBody{Error: msg, Problems: problems})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
