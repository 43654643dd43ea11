// Command csimload load-tests a csimd server: N concurrent clients each
// run a stream of identical jobs through service.Client.Run — one held
// submission per job — and the tool reports throughput, latency
// percentiles, requests per job, cache behaviour and queue rejections.
// Assertion flags make it a CI gate:
//
//	csimload -addr http://127.0.0.1:8416 -clients 64 -jobs 2 \
//	    -circuit s5378 -random 100 -expect-detections 4505 \
//	    -min-cache-hit 0.9 -min-inflight 50
//
// exits non-zero when a job fails or its result is dropped, when a
// completed job's detection count differs from -expect-detections, when
// the server-side cache hit rate ends below -min-cache-hit, when the
// peak number of concurrently in-flight jobs never reaches
// -min-inflight, when the clients made more than -max-requests-per-job
// HTTP requests per completed job, or when -expect-reject is set and the
// run never drew a 429. Queue rejections are retried honouring the
// server's Retry-After hint (capped at 2 s per sleep, jittered to
// de-synchronize the herd, and bounded at 30 s in total per job), so
// overload slows the run down but never silently livelocks it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

func main() {
	var (
		addr    = flag.String("addr", "http://127.0.0.1:8416", "csimd base URL")
		clients = flag.Int("clients", 16, "concurrent client goroutines")
		jobs    = flag.Int("jobs", 4, "jobs per client")
		circuit = flag.String("circuit", "s5378", "built-in suite circuit to simulate")
		model   = flag.String("model", "stuck", "fault model: stuck | stuck-all | transition")
		engine  = flag.String("engine", "csim-MV", "engine name (see csimd docs)")
		randomN = flag.Int("random", 100, "random vectors per job")
		seed    = flag.Int64("seed", 1, "random vector seed")
		timeout = flag.Duration("timeout", 5*time.Minute, "whole-run deadline")

		expectDet   = flag.Int("expect-detections", -1, "assert every completed job detects exactly this many faults (-1 disables)")
		minCacheHit = flag.Float64("min-cache-hit", 0, "assert the final server cache hit rate is at least this fraction (0 disables)")
		minInflight = flag.Int("min-inflight", 0, "assert the peak concurrently in-flight job count reaches this (0 disables)")
		maxReqs     = flag.Float64("max-requests-per-job", 0, "assert the clients made at most this many HTTP requests per completed job (0 disables)")
		expectRej   = flag.Bool("expect-reject", false, "assert the run drew at least one 429 queue rejection")
	)
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	var requests countingTransport
	cl := service.NewClient(*addr)
	cl.HTTPClient = &http.Client{Transport: &requests}
	spec := service.JobSpec{
		Circuit: *circuit, Model: *model, Engine: *engine,
		Random: *randomN, Seed: *seed,
	}

	var (
		mu        sync.Mutex
		latencies []time.Duration
		failures  []string
		// admitted holds the start and end of every Run call the server
		// admitted; a job is in flight for the client from the one to the
		// other.
		admitted []span

		rejections  atomic.Int64
		detMismatch atomic.Int64
		completed   atomic.Int64
	)
	start := time.Now()
	var wg sync.WaitGroup
	for range *clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < *jobs; i++ {
				jStart := time.Now()
				v, ran, err := runWithRetry(ctx, cl, spec, &rejections)
				if err != nil {
					record(&mu, &failures, fmt.Sprintf("run %s: %v", v.ID, err))
					return
				}
				mu.Lock()
				admitted = append(admitted, ran)
				mu.Unlock()
				if v.Status != service.StatusDone || v.Result == nil {
					record(&mu, &failures, fmt.Sprintf("job %s: status %s, error %q", v.ID, v.Status, v.Error))
					continue
				}
				completed.Add(1)
				if *expectDet >= 0 && v.Result.Detected != *expectDet {
					detMismatch.Add(1)
					record(&mu, &failures, fmt.Sprintf("job %s: detected %d, want %d", v.ID, v.Result.Detected, *expectDet))
				}
				mu.Lock()
				latencies = append(latencies, time.Since(jStart))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	jobRequests := requests.n.Load() // before the scrapes below add theirs
	peakInflight := peakOverlap(admitted)

	sum := summarize(latencies, wall)
	total := *clients * *jobs
	fmt.Printf("csimload:  %s %s/%s random=%d x %d clients x %d jobs\n",
		*addr, *circuit, *engine, *randomN, *clients, *jobs)
	fmt.Printf("completed: %d/%d (rejected-then-retried: %d, peak in-flight: %d)\n",
		completed.Load(), total, rejections.Load(), peakInflight)
	fmt.Printf("latency:   %s\n", sum)
	reqsPerJob := math.Inf(1)
	if n := completed.Load(); n > 0 {
		reqsPerJob = float64(jobRequests) / float64(n)
	}
	fmt.Printf("requests:  %.2f per completed job (%d in all)\n", reqsPerJob, jobRequests)

	hitRate := cacheHitRate(ctx, cl)
	if hitRate >= 0 {
		fmt.Printf("cache:     hit rate %.1f%%\n", 100*hitRate)
	}

	ok := true
	fail := func(format string, args ...any) {
		ok = false
		fmt.Fprintf(os.Stderr, "csimload: FAIL: "+format+"\n", args...)
	}
	if len(failures) > 0 {
		for i, f := range failures {
			if i == 10 {
				fmt.Fprintf(os.Stderr, "csimload: ... %d more failures\n", len(failures)-10)
				break
			}
			fmt.Fprintf(os.Stderr, "csimload: %s\n", f)
		}
		fail("%d of %d jobs did not complete cleanly", len(failures), total)
	}
	if int(completed.Load()) != total && len(failures) == 0 {
		fail("completed %d of %d jobs with no recorded failure (dropped results)", completed.Load(), total)
	}
	if *expectDet >= 0 && detMismatch.Load() > 0 {
		fail("%d completed jobs had wrong detection counts", detMismatch.Load())
	}
	if *minCacheHit > 0 {
		if hitRate < 0 {
			fail("cache hit rate unavailable from /metricsz")
		} else if hitRate < *minCacheHit {
			fail("cache hit rate %.3f below the required %.3f", hitRate, *minCacheHit)
		}
	}
	if *minInflight > 0 && peakInflight < *minInflight {
		fail("peak in-flight %d never reached the required %d", peakInflight, *minInflight)
	}
	if *maxReqs > 0 && reqsPerJob > *maxReqs {
		fail("%.2f requests per completed job, above the allowed %.2f", reqsPerJob, *maxReqs)
	}
	if *expectRej && rejections.Load() == 0 {
		fail("expected at least one 429 queue rejection; saw none")
	}
	if !ok {
		os.Exit(1)
	}
}

// latency is a load run's per-job latency report: the job count, the
// run's wall-clock span and the latency ladder.
type latency struct {
	n                             int
	wall                          time.Duration
	min, p50, p90, p99, max, mean time.Duration
}

// summarize sorts the sample in place and reads the ladder off it: min,
// max and mean exactly, each percentile by nearest rank. An empty sample
// gives a zero summary.
func summarize(sample []time.Duration, wall time.Duration) latency {
	s := latency{n: len(sample), wall: wall}
	if s.n == 0 {
		return s
	}
	slices.Sort(sample)
	var sum time.Duration
	for _, d := range sample {
		sum += d
	}
	rank := func(pct int) time.Duration { return sample[(pct*s.n+99)/100-1] }
	s.min, s.p50, s.p90, s.p99, s.max = sample[0], rank(50), rank(90), rank(99), sample[s.n-1]
	s.mean = sum / time.Duration(s.n)
	return s
}

// String renders the one-line latency report.
func (s latency) String() string {
	rate := 0.0
	if s.wall > 0 {
		rate = float64(s.n) / s.wall.Seconds()
	}
	r := func(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
	return fmt.Sprintf("n=%d wall=%s rate=%.1f/s min=%s p50=%s p90=%s p99=%s max=%s mean=%s",
		s.n, s.wall.Round(time.Millisecond), rate, r(s.min), r(s.p50), r(s.p90), r(s.p99), r(s.max), r(s.mean))
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
// maxRetryTime so a saturated server fails the job loudly instead of
// livelocking the run. ran is the interval of the Run call that was
// admitted.
func runWithRetry(ctx context.Context, cl *service.Client, spec service.JobSpec,
	rejections *atomic.Int64) (v service.JobView, ran span, err error) {
	var waited time.Duration
	for {
		ran.start = time.Now()
		v, err = cl.Run(ctx, spec, 0)
		ran.end = time.Now()
		var qf *service.QueueFullError
		if !errors.As(err, &qf) {
			return v, ran, err
		}
		rejections.Add(1)
		wait := min(qf.RetryAfter, maxRetryWait)
		wait += time.Duration(rand.Int63n(int64(wait)/2 + 1))
		if waited+wait > maxRetryTime {
			return v, ran, fmt.Errorf("429 retry budget %s exhausted after %s of backoff: %w", maxRetryTime, waited, err)
		}
		select {
		case <-ctx.Done():
			return v, ran, ctx.Err()
		case <-time.After(wait):
		}
		waited += wait
	}
}

// cacheHitRate reads the final hit rate from the server's /metricsz;
// -1 when the metrics are unavailable or no lookup happened.
func cacheHitRate(ctx context.Context, cl *service.Client) float64 {
	m, err := cl.Metricsz(ctx)
	if err != nil {
		return -1
	}
	hits, misses := m["serve.cache_hits"].Value, m["serve.cache_misses"].Value
	if hits+misses == 0 {
		return -1
	}
	return float64(hits) / float64(hits+misses)
}

func record(mu *sync.Mutex, failures *[]string, msg string) {
	mu.Lock()
	*failures = append(*failures, msg)
	mu.Unlock()
}
