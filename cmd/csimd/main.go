// Command csimd serves fault simulation over HTTP/JSON: a bounded job
// queue in front of a worker pool over the repository's engines, with a
// compiled-circuit cache and the observability endpoints.
//
// Usage:
//
//	csimd -addr :8416 -workers 8 -queue 256
//
// Endpoints:
//
//	POST   /api/v1/jobs            submit a job (JSON JobSpec); 429 + Retry-After when full;
//	                               ?wait=30s holds the request until the job ends (200 + result)
//	                               or the wait passes (202 + live view)
//	GET    /api/v1/jobs            list jobs
//	GET    /api/v1/jobs/{id}       job status + result; ?wait= holds it the same way
//	GET    /api/v1/jobs/{id}/debug flight-recorder postmortem
//	DELETE /api/v1/jobs/{id}       cancel (frees a queued job's slot immediately)
//	GET    /healthz                liveness
//	GET    /readyz                 readiness (503 while draining)
//	GET    /metricsz               metric registry snapshot (also /debug/pprof);
//	                               ?format=prometheus for text exposition
//
// Submissions may carry an X-Csim-Job-Id header; the server adopts it as
// the job ID and every structured log record and flight event for that
// job carries it. Structured logs go to stderr (-log-format, -log-level).
//
// SIGINT/SIGTERM starts a graceful drain: admissions stop, queued and
// running jobs finish (bounded by -drain-timeout), then the process
// exits 0. See DESIGN.md §10 and the README "Serving" section.
//
// Coordinator mode (-coordinator) serves the same API but executes
// nothing locally: each admitted job is split into fault-partition
// shards and fanned out to the worker csimd nodes named by
// -worker-addrs (comma-separated base URLs) or -worker-file (one URL
// per line, # comments). Workers are ordinary csimd processes — the
// coordinator is a client of their job API. See DESIGN.md §13 and the
// README "Distributed" section.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	var (
		addr         = flag.String("addr", ":8416", "listen address")
		workers      = flag.Int("workers", runtime.NumCPU(), "simulation worker-pool size")
		queue        = flag.Int("queue", 256, "admission queue depth (full queue answers 429)")
		cacheSize    = flag.Int("cache", 64, "compiled-circuit cache capacity (circuits)")
		maxInline    = flag.Int64("max-inline", 4<<20, "inline netlist/vector size bound in bytes (oversized answers 413)")
		jobTimeout   = flag.Duration("job-timeout", 5*time.Minute, "default per-job run-time bound")
		maxTimeout   = flag.Duration("max-job-timeout", 30*time.Minute, "cap on spec-requested per-job timeouts")
		drainTimeout = flag.Duration("drain-timeout", 2*time.Minute, "bound on the graceful drain after SIGTERM")
		retained     = flag.Int("retained", 2048, "finished jobs kept for late lookups and /debug before eviction")
		logFormat    = flag.String("log-format", "json", "structured log format on stderr: json or text")
		logLevel     = flag.String("log-level", "info", "log threshold: debug, info, warn or error")
		flightBuf    = flag.Int("flight-buffer", obs.DefaultFlightEvents, "per-job flight-recorder capacity (events)")

		coordinator   = flag.Bool("coordinator", false, "coordinate a worker fleet instead of executing locally")
		workerAddrs   = flag.String("worker-addrs", "", "comma-separated worker base URLs (coordinator mode)")
		workerFile    = flag.String("worker-file", "", "file of worker base URLs, one per line (coordinator mode)")
		probeInterval = flag.Duration("probe-interval", 2*time.Second, "worker /readyz health-probe spacing (coordinator mode)")
		shardTimeout  = flag.Duration("shard-timeout", 2*time.Minute, "per-shard attempt bound before re-queue (coordinator mode)")
		shardRetries  = flag.Int("shard-retries", 3, "workers a shard may be tried on before the job fails (coordinator mode)")
		perWorker     = flag.Int("per-worker-inflight", 2, "concurrent shards per worker (coordinator mode)")
	)
	flag.Parse()

	// Metrics are always on — the service exists to serve them. No
	// tracer: its span list only grows, and each job's flight recorder
	// is the timeline a long-lived server keeps.
	ob := &obs.Observer{Metrics: obs.NewRegistry()}

	lg, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fatal(err)
	}

	cfg := service.Config{
		Addr:           *addr,
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheSize:      *cacheSize,
		MaxInlineBytes: *maxInline,
		DefaultTimeout: *jobTimeout,
		MaxTimeout:     *maxTimeout,
		Retained:       *retained,
		Obs:            ob,
		Log:            lg,
		FlightEvents:   *flightBuf,
	}
	var coord *dist.Coordinator
	if *coordinator {
		fleet, err := workerList(*workerAddrs, *workerFile)
		if err != nil {
			fatal(err)
		}
		coord, err = dist.New(dist.Config{
			Workers:           fleet,
			ProbeInterval:     *probeInterval,
			ShardTimeout:      *shardTimeout,
			MaxAttempts:       *shardRetries,
			PerWorkerInflight: *perWorker,
			Obs:               ob,
			Log:               lg,
		})
		if err != nil {
			fatal(err)
		}
		defer coord.Close()
		cfg.Runner = coord
	}
	srv := service.New(cfg)
	if err := srv.Start(); err != nil {
		fatal(err)
	}
	if coord != nil {
		fmt.Printf("csimd:     coordinating http://%s/api/v1/jobs over %d worker(s)\n",
			srv.Addr(), len(coord.Workers()))
	} else {
		fmt.Printf("csimd:     serving http://%s/api/v1/jobs (%d workers, queue %d, cache %d)\n",
			srv.Addr(), *workers, *queue, *cacheSize)
	}

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	sig := <-ch
	fmt.Printf("csimd:     %s received; draining (bound %s)\n", sig, *drainTimeout)

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "csimd: drain incomplete: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("csimd:     drained cleanly")
}

// workerList resolves the coordinator's fleet from -worker-addrs
// (comma-separated) plus -worker-file (one URL per line; blank lines
// and # comments skipped), normalizing bare host:port to http://.
func workerList(addrs, file string) ([]string, error) {
	var out []string
	for _, a := range strings.Split(addrs, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, normalizeWorkerURL(a))
		}
	}
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, fmt.Errorf("-worker-file: %w", err)
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			out = append(out, normalizeWorkerURL(line))
		}
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("-worker-file: %w", err)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-coordinator needs workers via -worker-addrs or -worker-file")
	}
	return out, nil
}

// normalizeWorkerURL defaults a scheme-less worker address to http.
func normalizeWorkerURL(a string) string {
	if strings.Contains(a, "://") {
		return a
	}
	return "http://" + a
}

// buildLogger assembles the stderr slog handler from the -log-format and
// -log-level flags. Logs go to stderr so the startup/drain lines on
// stdout stay machine-greppable.
func buildLogger(format, level string) (*obs.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("-log-level %q: want debug, info, warn or error", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "json":
		return obs.NewLogger(slog.NewJSONHandler(os.Stderr, opts)), nil
	case "text":
		return obs.NewLogger(slog.NewTextHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format %q: want json or text", format)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "csimd:", err)
	os.Exit(1)
}
