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
// running jobs finish (for at most two minutes), then the process exits
// 0. See DESIGN.md §10 and the README "Serving" section.
//
// Coordinator mode (-coordinator) serves the same API but executes
// nothing locally: each admitted job is split into fault-partition
// shards and fanned out to the worker csimd nodes named by
// -worker-addrs (comma-separated base URLs). Workers are ordinary csimd
// processes — the coordinator is a client of their job API. See
// DESIGN.md §13 and the README "Distributed" section.
package main

import (
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
		addr      = flag.String("addr", ":8416", "listen address")
		workers   = flag.Int("workers", runtime.NumCPU(), "simulation worker-pool size")
		queue     = flag.Int("queue", 256, "admission queue depth (full queue answers 429)")
		cacheSize = flag.Int("cache", 64, "compiled-circuit cache capacity (circuits)")
		logFormat = flag.String("log-format", "json", "structured log format on stderr: json or text")
		logLevel  = flag.String("log-level", "info", "log threshold: info, warn or error")

		coordinator   = flag.Bool("coordinator", false, "coordinate a worker fleet instead of executing locally")
		workerAddrs   = flag.String("worker-addrs", "", "comma-separated worker base URLs (coordinator mode)")
		probeInterval = flag.Duration("probe-interval", 2*time.Second, "worker /readyz health-probe spacing (coordinator mode)")
	)
	flag.Parse()

	// Metrics are always on — the service exists to serve them. A job's
	// timeline is its own flight recorder, which the server makes at
	// admission.
	ob := &obs.Observer{Metrics: obs.NewRegistry()}

	lg, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fatal(err)
	}

	cfg := service.Config{
		Addr:       *addr,
		Workers:    *workers,
		QueueDepth: *queue,
		CacheSize:  *cacheSize,
		Obs:        ob,
		Log:        lg,
	}
	var coord *dist.Coordinator
	if *coordinator {
		fleet, err := workerList(*workerAddrs)
		if err != nil {
			fatal(err)
		}
		coord, err = dist.New(dist.Config{
			Workers:       fleet,
			ProbeInterval: *probeInterval,
			Obs:           ob,
			Log:           lg,
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
	fmt.Printf("csimd:     %s received; draining (bound %s)\n", sig, drainTimeout)

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "csimd: drain incomplete: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("csimd:     drained cleanly")
}

// drainTimeout bounds the graceful drain after SIGINT/SIGTERM.
const drainTimeout = 2 * time.Minute

// workerList resolves the coordinator's fleet from -worker-addrs
// (comma-separated), defaulting a scheme-less host:port to http://.
func workerList(addrs string) ([]string, error) {
	var out []string
	for _, a := range strings.Split(addrs, ",") {
		if a = strings.TrimSpace(a); a == "" {
			continue
		}
		if !strings.Contains(a, "://") {
			a = "http://" + a
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-coordinator needs workers via -worker-addrs")
	}
	return out, nil
}

// buildLogger assembles the stderr slog handler from the -log-format and
// -log-level flags. Logs go to stderr so the startup/drain lines on
// stdout stay machine-greppable.
func buildLogger(format, level string) (*obs.Logger, error) {
	var lv slog.Level
	switch level {
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("-log-level %q: want info, warn or error", level)
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
