package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// span is one timed interval at a layer boundary. Spans of one job share
// its ID; Parent is the index of the span that caused this one (-1: none).
type span struct {
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
	Parent  int     `json:"parent"`
	Job     string  `json:"job,omitempty"`
}

// maxTracedJobs bounds the jobs whose spans are kept: svc-tiny finishes
// several thousand per run and the per-layer numbers do not need them all.
const maxTracedJobs = 512

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	jobs  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// admitJob reports whether another job's spans still fit.
func (t *tracer) admitJob() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.jobs++
	return t.jobs <= maxTracedJobs
}

// add records a span and returns its index for use as a parent.
func (t *tracer) add(name string, start, end time.Time, parent int, job string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, StartMS: ms(start.Sub(t.t0)), EndMS: ms(end.Sub(t.t0)), Parent: parent, Job: job,
	})
	return len(t.spans) - 1
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(name, start, end, -1, "")
	return end.Sub(start)
}

func (t *tracer) write(dir, workload string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	buf, err := json.Marshal(map[string]any{"workload": workload, "jobs_traced": min(t.jobs, maxTracedJobs), "spans": t.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(dir, "out"), 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "out", "trace-"+workload+".json"), buf, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// request is one HTTP exchange seen by a countingRT.
type request struct {
	method string
	// jobID is the X-Csim-Job-Id header: the coordinator's shard requests
	// carry the shard ID there.
	jobID      string
	start, end time.Time
	up, down   int64
}

// countingRT is an http.RoundTripper that records every exchange made
// through it: method, timing, and body bytes each way. It sits in
// Client.HTTPClient during the traced window and in dist.Config.HTTPClient
// for the whole run, where off keeps it out of the untraced window's way.
type countingRT struct {
	off atomic.Bool

	mu   sync.Mutex
	reqs []request
}

// RoundTrip forwards to the default transport and, unless switched off,
// records the exchange once the response body has been closed.
func (rt *countingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if rt.off.Load() {
		return http.DefaultTransport.RoundTrip(req)
	}
	r := request{method: req.Method, jobID: req.Header.Get(service.JobIDHeader), start: time.Now()}
	if req.ContentLength > 0 {
		r.up = req.ContentLength
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, rt: rt, r: r}
	return resp, nil
}

// take returns and forgets the exchanges recorded so far.
func (rt *countingRT) take() []request {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := rt.reqs
	rt.reqs = nil
	return out
}

// countingBody counts the response bytes and files the exchange on Close.
type countingBody struct {
	io.ReadCloser
	rt   *countingRT
	r    request
	once sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.r.down += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	b.once.Do(func() {
		b.r.end = time.Now()
		b.rt.mu.Lock()
		b.rt.reqs = append(b.rt.reqs, b.r)
		b.rt.mu.Unlock()
	})
	return b.ReadCloser.Close()
}
