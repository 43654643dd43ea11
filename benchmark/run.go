package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	faultsim "repro"
	"repro/internal/service"
)

// processStart anchors setup_s of a command-line run: its first set-up is
// timed from process start.
var processStart = time.Now()

// runConfig is one benchmark run: a workload, the seed its inputs come
// from, and the length of the measured window.
type runConfig struct {
	workload workload
	seed     int64
	seconds  float64
	// trace adds a traced window after the untraced one and the layer pass.
	trace bool
	// dir is the benchmark directory (expected.json, out/).
	dir string
	// started is when this run began: set-up time counts from here.
	started time.Time
	// setupFor is how long set-up is repeated for (two seconds on the
	// command line; the smoke test has no time for that).
	setupFor time.Duration
	// known overrides the committed oracle (the smoke test plants a wrong
	// count here).
	known map[string]counts
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// hostInfo records where the numbers were taken.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
}

// report is the outcome of one run, as stored in a set file.
type report struct {
	Workload       string           `json:"workload"`
	Seed           int64            `json:"seed"`
	Seconds        float64          `json:"seconds"`
	Host           hostInfo         `json:"host"`
	Plan           string           `json:"plan,omitempty"`
	Attempted      int              `json:"attempted"`
	Failed         int              `json:"failed"`
	FailedShare    float64          `json:"failed_share"`
	Samples        int              `json:"samples"`
	TailPercentile float64          `json:"tail_percentile"`
	EndToEnd       map[string]value `json:"end_to_end"`
	PerLayer       map[string]value `json:"per_layer,omitempty"`
}

func host() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var sb strings.Builder
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			sb.WriteByte(byte(c))
		}
		h.Kernel = sb.String()
	}
	return h
}

// env is the system under test: csimd in-process on loopback, behind a
// coordinator and two workers for the fleet workload.
type env struct {
	// url is the server the clients talk to.
	url        string
	servers    []*faultsim.Server
	coord      *faultsim.Coordinator
	workerURLs []string
	// distRT counts the coordinator's requests to its workers; it is
	// switched on for the traced window only.
	distRT *countingRT
}

func (e *env) serve(cfg faultsim.ServeConfig) (*faultsim.Server, error) {
	cfg.Addr = "127.0.0.1:0"
	s := faultsim.NewServer(cfg)
	if err := s.Start(); err != nil {
		return nil, err
	}
	e.servers = append(e.servers, s)
	return s, nil
}

// stop closes the front server first, so no job is left waiting on a
// worker that is already gone.
func (e *env) stop() {
	for i := len(e.servers) - 1; i >= 0; i-- {
		_ = e.servers[i].Close() // Close always returns nil
	}
	if e.coord != nil {
		e.coord.Close()
	}
}

// start brings the servers up and waits until they accept jobs. Server
// config is the zero value except for what the workload states.
func (w *workload) start(ctx context.Context) (*env, error) {
	e := &env{}
	front := faultsim.ServeConfig{CacheSize: w.cacheSize, EngineWorkers: w.engineWorkers}
	if w.fleet {
		for i := 0; i < 2; i++ {
			s, err := e.serve(faultsim.ServeConfig{Workers: 1, EngineWorkers: 1})
			if err != nil {
				e.stop()
				return nil, err
			}
			e.workerURLs = append(e.workerURLs, "http://"+s.Addr())
		}
		e.distRT = &countingRT{}
		e.distRT.off.Store(true)
		ob := &faultsim.Observer{Metrics: faultsim.NewObserver().Metrics}
		coord, err := faultsim.NewCoordinator(faultsim.DistConfig{
			Workers: e.workerURLs, PerWorkerInflight: 1, Obs: ob,
			HTTPClient: &http.Client{Transport: e.distRT},
		})
		if err != nil {
			e.stop()
			return nil, err
		}
		e.coord = coord
		front.Runner, front.Obs = coord, ob
	}
	s, err := e.serve(front)
	if err != nil {
		e.stop()
		return nil, err
	}
	e.url = "http://" + s.Addr()
	if err := e.ready(ctx); err != nil {
		e.stop()
		return nil, err
	}
	return e, nil
}

// ready waits for /readyz on the front server and, for a fleet, for the
// coordinator's probes to have found every worker. It reads the per-worker
// health gauges: the aggregate dist.workers_healthy can stay one short when
// two probers publish their first verdicts at the same moment.
func (e *env) ready(ctx context.Context) error {
	c := service.NewClient(e.url)
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := c.Ready(ctx)
		if err == nil && e.coord != nil {
			m, merr := c.Metricsz(ctx)
			err = merr
			for i := range e.workerURLs {
				if g := fmt.Sprintf("dist.worker%d.healthy", i); merr == nil && m[g].Value != 1 {
					err = fmt.Errorf("worker %d not probed healthy yet", i)
				}
			}
		}
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("servers not ready: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// sample is one job as its client saw it.
type sample struct {
	in         *input
	start, end time.Time
	id         string
	status     service.Status
	err        error
	// rejected counts the 429s drawn before admission.
	rejected int
	res      *service.ResultView
	// submitted, started and finished are the server's own timestamps.
	submitted, started, finished time.Time

	// Traced window only.
	reqs   []request
	events []faultsim.FlightEvent
	shards []shardObs
}

func (s *sample) latency() time.Duration { return s.end.Sub(s.start) }

// maxRejects is how many 429s a job may draw before it counts as failed.
const maxRejects = 5

// runJob drives one job the way csimd's callers do: Client.Run at the
// client's default poll, retrying a full queue after the server's hint.
func runJob(ctx context.Context, c *service.Client, in *input) sample {
	s := sample{in: in, start: time.Now()}
	var v service.JobView
	for {
		v, s.err = c.Run(ctx, in.spec, 0)
		var qf *service.QueueFullError
		if !errors.As(s.err, &qf) || s.rejected >= maxRejects {
			break
		}
		s.rejected++
		select {
		case <-ctx.Done():
		case <-time.After(min(qf.RetryAfter, 200*time.Millisecond)):
		}
	}
	s.end = time.Now()
	// Keep what the metrics need and let the view go: it echoes the spec,
	// which for an inline netlist is 75 KB per job.
	s.id, s.status, s.res = v.ID, v.Status, v.Result
	s.submitted, s.started, s.finished = stamp(v.Submitted), stamp(v.Started), stamp(v.Finished)
	return s
}

func stamp(s string) time.Time {
	t, _ := time.Parse(time.RFC3339Nano, s) // empty until reached: zero time
	return t
}

// window is one measured interval and what the process spent in it.
type window struct {
	samples []sample
	wall    time.Duration
	cpuS    float64
	// peakRSSMB is the process's peak RSS when the window closed, and
	// rssGrowthMB how far the window moved it.
	peakRSSMB, rssGrowthMB float64
}

func rusage() (cpuS, maxRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024
}

// drive runs the closed loop: each client submits its next job only after
// the previous one reached a terminal state. New jobs start until d has
// passed (or, with d == 0, until n jobs have started); jobs in flight
// finish. next numbers the jobs across windows so inputs keep cycling.
func (e *env) drive(ctx context.Context, w *workload, ins []input, next *atomic.Int64, d time.Duration, n int64, tr *tracer) window {
	cpu0, rss0 := rusage()
	t0 := time.Now()
	stopAt := next.Load() + n
	perClient := make([][]sample, w.clients)
	var wg sync.WaitGroup
	for ci := 0; ci < w.clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := service.NewClient(e.url)
			var rt *countingRT
			if tr != nil {
				rt = &countingRT{}
				c.HTTPClient = &http.Client{Transport: rt}
			}
			for ctx.Err() == nil {
				if d > 0 && time.Since(t0) >= d {
					return
				}
				i := next.Add(1) - 1
				if d == 0 && i >= stopAt {
					return
				}
				s := runJob(ctx, c, &ins[int(i)%len(ins)])
				if tr != nil {
					s.reqs = rt.take()
					e.observe(ctx, w, c, &s)
					rt.take() // the observation's own requests are not the job's
				}
				perClient[ci] = append(perClient[ci], s)
			}
		}(ci)
	}
	wg.Wait()
	win := window{wall: time.Since(t0)}
	cpu1, rss1 := rusage()
	win.cpuS, win.peakRSSMB, win.rssGrowthMB = cpu1-cpu0, rss1, rss1-rss0
	for _, ss := range perClient {
		win.samples = append(win.samples, ss...)
	}
	sort.Slice(win.samples, func(i, j int) bool { return win.samples[i].start.Before(win.samples[j].start) })
	return win
}

// good reports whether a job finished done with the oracle's counts.
func (s *sample) good(oracle map[string]counts) bool {
	return s.err == nil && s.status == service.StatusDone && s.res != nil && countsOf(s.res) == oracle[s.in.key]
}

// percentile interpolates linearly between the two nearest ranks of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// latencies returns the good jobs' client-observed latencies, ascending.
func latencies(win *window, oracle map[string]counts) []float64 {
	var out []float64
	for i := range win.samples {
		if win.samples[i].good(oracle) {
			out = append(out, ms(win.samples[i].latency()))
		}
	}
	sort.Float64s(out)
	return out
}

// endToEndOf computes the end-to-end metrics of an untraced window; lat is
// its good jobs' latencies, ascending.
func endToEndOf(w *workload, win *window, lat []float64, oracle map[string]counts, setupS float64) map[string]float64 {
	var faultCycles float64
	for i := range win.samples {
		if s := &win.samples[i]; s.good(oracle) {
			faultCycles += float64(s.res.Patterns) * float64(s.res.Faults)
		}
	}
	n := float64(len(lat))
	return map[string]float64{
		"job_ms_p50":         percentile(lat, 50),
		"job_ms_tail":        percentile(lat, w.tail),
		"jobs_per_s":         n / win.wall.Seconds(),
		"fault_cycles_per_s": faultCycles / win.wall.Seconds(),
		"cpu_s_per_job":      win.cpuS / n,
		"peak_rss_mb":        win.peakRSSMB,
		"setup_s":            setupS,
	}
}

// setup is what a run has once it is ready to submit its first job.
type setup struct {
	known map[string]counts
	ins   []input
	env   *env
	// seconds is the median set-up time.
	seconds float64
}

// setUp loads the oracle, generates the run's inputs, starts the servers
// and waits until they are ready. It is repeated so that the reported
// set-up time is a steady median: at least five times and for setupFor,
// but no longer than one and a half times that. The command line asks for
// two seconds, because this sandbox runs a new process at about half speed
// for its first second and a suite-circuit set-up takes under a
// millisecond: the median must come from the repetitions after the ramp.
func setUp(ctx context.Context, cfg *runConfig) (*setup, error) {
	var times []float64
	begin := cfg.started
	for {
		known := cfg.known
		if known == nil {
			var err error
			if known, err = loadExpected(cfg.dir); err != nil {
				return nil, err
			}
		}
		ins, err := cfg.workload.makeInputs(cfg.seed)
		if err != nil {
			return nil, err
		}
		e, err := cfg.workload.start(ctx)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(begin).Seconds())
		if spent := time.Since(cfg.started); len(times) >= 5 && spent > cfg.setupFor || spent > cfg.setupFor*3/2 {
			return &setup{known: known, ins: ins, env: e, seconds: median(times)}, nil
		}
		e.stop()
		begin = time.Now()
	}
}

// run executes one benchmark run.
func run(ctx context.Context, cfg runConfig) (*report, error) {
	w := &cfg.workload
	h := host()
	if h.NProc < 2 {
		return nil, fmt.Errorf("host has %d CPU: the benchmark needs at least 2 (two clients; grid-local and fleet plan K=2 shards that must run side by side)", h.NProc)
	}
	su, err := setUp(ctx, &cfg)
	if err != nil {
		return nil, err
	}
	ins, e := su.ins, su.env
	defer e.stop()

	// Warm-up: caches fill and lazy set-up finishes before timing. The
	// first job also shows which plan the scheduler or coordinator chose.
	var next atomic.Int64
	warm := e.drive(ctx, w, ins, &next, 0, int64(w.warmup), nil)
	if len(warm.samples) == 0 || warm.samples[0].err != nil || warm.samples[0].res == nil {
		return nil, fmt.Errorf("warm-up job failed: %+v", warm.samples)
	}
	first := &warm.samples[0]
	rep := &report{Workload: w.Name, Seed: cfg.seed, Seconds: cfg.seconds, Host: h, TailPercentile: w.tail}
	if w.sharded() {
		rep.Plan = fmt.Sprintf("%dx%d", first.res.Workers, first.res.Windows)
		if rep.Plan != w.wantPlan {
			return nil, fmt.Errorf("%s planned %s, the workload is defined on %s", w.Name, rep.Plan, w.wantPlan)
		}
	}

	d := time.Duration(cfg.seconds * float64(time.Second))
	var tr *tracer
	if cfg.trace {
		// Half the time untraced, half traced: the same process gives both
		// sides of bench.trace_overhead_share.
		d /= 2
	}
	plain := e.drive(ctx, w, ins, &next, d, 0, nil)
	var traced window
	if cfg.trace {
		tr = newTracer()
		if e.distRT != nil {
			e.distRT.off.Store(false)
		}
		traced = e.drive(ctx, w, ins, &next, d, 0, tr)
	}

	oracle, err := resolve(ins, su.known)
	if err != nil {
		return nil, err
	}
	for _, win := range []*window{&warm, &plain, &traced} {
		for i := range win.samples {
			s := &win.samples[i]
			rep.Attempted++
			if !s.good(oracle) {
				if rep.Failed++; rep.Failed > 10 {
					continue // ten are enough to see what went wrong
				}
				fmt.Printf("FAILED job %s (%s): status %q err %v got %+v want %+v\n",
					s.id, s.in.key, s.status, s.err, s.res, oracle[s.in.key])
			} else if hit := s.res.CacheHit; win != &warm && hit != (w.hitShare == 1) {
				return nil, fmt.Errorf("run invalid: job %s (%s) cache_hit=%t, %s is defined at cache hit share %.0f", s.id, s.in.key, hit, w.Name, w.hitShare)
			}
		}
	}
	rep.FailedShare = float64(rep.Failed) / float64(rep.Attempted)
	if w.fleet {
		m, err := service.NewClient(e.url).Metricsz(ctx)
		if err != nil {
			return nil, err
		}
		if n := m["dist.shards_requeued"].Value; n > 0 {
			return nil, fmt.Errorf("run invalid: %d shard(s) were re-queued; the fleet numbers assume none", n)
		}
	}

	lat := latencies(&plain, oracle)
	if len(lat) == 0 {
		return nil, errors.New("no job of the measured window finished with correct counts")
	}
	e2e := endToEndOf(w, &plain, lat, oracle, su.seconds)
	rep.Samples = len(lat)
	rep.EndToEnd = map[string]value{}
	for _, m := range endToEnd {
		rep.EndToEnd[m.Name] = value{e2e[m.Name], m.Unit}
	}
	if cfg.trace {
		layers, err := perLayerOf(ctx, w, e, &ins[0], first, percentile(lat, 50), &traced, oracle, tr)
		if err != nil {
			return nil, err
		}
		rep.PerLayer = map[string]value{}
		for _, m := range perLayer {
			rep.PerLayer[m.Name] = value{layers[m.Name], m.Unit}
		}
		if err := tr.write(cfg.dir, w.Name); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
