package dist

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// worker is one fleet member: its job-API client, health bit, and
// ship-once bookkeeping for inline circuits.
type worker struct {
	idx    int
	addr   string
	client *service.Client

	// healthy reflects the last /readyz probe (and flips false
	// immediately on a connection error mid-dispatch, without waiting
	// for the prober).
	healthy atomic.Bool

	mu sync.Mutex
	//simlint:guarded_by(mu)
	shipped map[string]bool // bench keys this worker's cache has seen

	gHealthy  *obs.Gauge
	gInflight *obs.Gauge
}

// benchShipped reports whether key was already shipped to this worker.
func (w *worker) benchShipped(key string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.shipped[key]
}

// markShipped records that the worker's cache holds key.
func (w *worker) markShipped(key string) {
	w.mu.Lock()
	w.shipped[key] = true
	w.mu.Unlock()
}

// clearShipped forgets key after the worker reported a bench-key miss
// (its cache evicted the circuit); the next attempt re-ships the text.
func (w *worker) clearShipped(key string) {
	w.mu.Lock()
	delete(w.shipped, key)
	w.mu.Unlock()
}

// registry tracks the fleet: per-worker health and in-flight shard
// counts, a least-loaded picker with per-shard exclusion, and the
// background health probers.
type registry struct {
	workers []*worker
	limit   int // per-worker in-flight cap
	log     *obs.Logger

	mu sync.Mutex
	//simlint:guarded_by(mu)
	inflight []int

	// wakeCh pulses when a slot frees or health flips, re-arming
	// blocked pickers.
	wakeCh chan struct{}

	// healthMu makes a health transition and its publication one step:
	// two probers that each flipped a worker and then counted could
	// otherwise publish their counts in the wrong order and leave
	// dist.workers_healthy one short (or one over) until the next flip.
	healthMu sync.Mutex
	gHealthy *obs.Gauge // dist.workers_healthy

	stop chan struct{}
	wg   sync.WaitGroup
}

// newRegistry builds the fleet registry and starts one health-probe
// goroutine per worker; stopProbes tears them down.
func newRegistry(cfg Config) *registry {
	reg := cfg.Obs.Metrics
	r := &registry{
		limit:    cfg.PerWorkerInflight,
		log:      cfg.Log,
		inflight: make([]int, len(cfg.Workers)),
		wakeCh:   make(chan struct{}, 1),
		gHealthy: reg.Gauge("dist.workers_healthy"),
		stop:     make(chan struct{}),
	}
	for i, addr := range cfg.Workers {
		cl := service.NewClient(addr)
		cl.HTTPClient = cfg.HTTPClient
		prefix := fmt.Sprintf("dist.worker%d.", i)
		w := &worker{
			idx: i, addr: addr, client: cl,
			shipped:   map[string]bool{},
			gHealthy:  reg.Gauge(prefix + "healthy"),
			gInflight: reg.Gauge(prefix + "inflight"),
		}
		r.workers = append(r.workers, w)
	}
	for _, w := range r.workers {
		r.wg.Add(1)
		go func(w *worker) {
			defer r.wg.Done()
			r.probeLoop(w, cfg.ProbeInterval)
		}(w)
	}
	return r
}

// stopProbes shuts the probe goroutines down and waits them out.
func (r *registry) stopProbes() {
	close(r.stop)
	r.wg.Wait()
}

// probeLoop probes one worker forever (first immediately, then every
// interval) until stopProbes.
func (r *registry) probeLoop(w *worker, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		r.probeOnce(w)
		select {
		case <-r.stop:
			return
		case <-t.C:
		}
	}
}

// probeOnce runs one /readyz probe and publishes a health transition.
func (r *registry) probeOnce(w *worker) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	err := w.client.Ready(ctx)
	r.setHealth(w, err == nil, err)
}

// setHealth records a worker's health verdict, waking pickers and
// logging on transitions.
func (r *registry) setHealth(w *worker, healthy bool, cause error) {
	r.healthMu.Lock()
	if w.healthy.Load() == healthy {
		r.healthMu.Unlock()
		return
	}
	w.healthy.Store(healthy)
	if healthy {
		w.gHealthy.Set(1)
	} else {
		w.gHealthy.Set(0)
	}
	r.gHealthy.Set(r.countHealthy())
	r.healthMu.Unlock()
	r.wake()
	if healthy {
		r.log.Info("dist worker healthy",
			slog.String("phase", "probe"),
			slog.String("worker", w.addr))
	} else {
		errText := ""
		if cause != nil {
			errText = cause.Error()
		}
		r.log.Warn("dist worker unhealthy",
			slog.String("phase", "probe"),
			slog.String("worker", w.addr),
			slog.String("error", errText))
	}
}

// countHealthy tallies healthy workers.
func (r *registry) countHealthy() int64 {
	var n int64
	for _, w := range r.workers {
		if w.healthy.Load() {
			n++
		}
	}
	return n
}

// wake pulses the picker wake channel (non-blocking).
func (r *registry) wake() {
	select {
	case r.wakeCh <- struct{}{}:
	default:
	}
}

// pick blocks until a healthy, non-excluded worker has a free slot,
// claims the slot, and returns the worker. It fails fast when the
// exclusion set covers the whole fleet (health may recover; exclusion
// is permanent for the asking shard) or when ctx ends.
func (r *registry) pick(ctx context.Context, excluded map[int]bool) (*worker, error) {
	if len(excluded) >= len(r.workers) {
		return nil, fmt.Errorf("dist: all %d workers excluded for this shard", len(r.workers))
	}
	for {
		r.mu.Lock()
		best := -1
		for i, w := range r.workers {
			if excluded[i] || !w.healthy.Load() || r.inflight[i] >= r.limit {
				continue
			}
			if best < 0 || r.inflight[i] < r.inflight[best] {
				best = i
			}
		}
		if best >= 0 {
			r.inflight[best]++
			r.workers[best].gInflight.Set(int64(r.inflight[best]))
			r.mu.Unlock()
			return r.workers[best], nil
		}
		r.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-r.wakeCh:
		case <-time.After(100 * time.Millisecond):
			// Defensive re-scan: a missed wake pulse only delays, never
			// deadlocks, a picker.
		}
	}
}

// release returns a worker's slot and wakes blocked pickers.
func (r *registry) release(w *worker) {
	r.mu.Lock()
	r.inflight[w.idx]--
	w.gInflight.Set(int64(r.inflight[w.idx]))
	r.mu.Unlock()
	r.wake()
}
