package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestRetryAfterEmptyHistogram pins the 429 backoff fallback: before any
// job has finished, the run-time histogram is empty and the hint must be
// the 1-second floor, not zero or garbage.
func TestRetryAfterEmptyHistogram(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	if got := s.retryAfter(); got != 1 {
		t.Fatalf("retryAfter on empty histogram = %d, want 1", got)
	}
	// After observations the hint derives from the p90 and stays in the
	// clamp range.
	for i := 0; i < 20; i++ {
		s.hRunNS.Observe((2 * time.Second).Nanoseconds())
	}
	got := s.retryAfter()
	if got < 1 || got > 60 {
		t.Fatalf("retryAfter after observations = %d, want within [1,60]", got)
	}
}

// TestJobIDHeaderRoundTrip drives the correlation contract through
// ServeClient: an ID supplied via obs.WithJobID becomes the job's ID, is
// echoed in the response header, survives status polls, and collides
// with a 409 on reuse.
func TestJobIDHeaderRoundTrip(t *testing.T) {
	_, cl := startServer(t, Config{Workers: 2})
	ctx := obs.WithJobID(ctxT(t), "trace-abc.1")

	v, err := cl.Submit(ctx, JobSpec{Circuit: "s298", Random: 20, Seed: 3})
	if err != nil {
		t.Fatalf("submit with header: %v", err)
	}
	if v.ID != "trace-abc.1" {
		t.Fatalf("job ID = %q, want the supplied correlation ID", v.ID)
	}
	fv := waitTerminal(t, cl, v.ID)
	if fv.Status != StatusDone {
		t.Fatalf("correlated job status %s, error %q", fv.Status, fv.Error)
	}

	// Raw request: the server must echo the ID back as a header too.
	body, _ := json.Marshal(JobSpec{Circuit: "s298", Random: 20, Seed: 4})
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
		cl.BaseURL+"/api/v1/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(JobIDHeader, "trace-abc.2")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("raw submit: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(JobIDHeader); got != "trace-abc.2" {
		t.Fatalf("response %s = %q, want echo of request ID", JobIDHeader, got)
	}

	// Reusing a live ID is a conflict, not a silent overwrite.
	_, err = cl.Submit(ctx, JobSpec{Circuit: "s298", Random: 20, Seed: 5})
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate ID: got %v, want 409", err)
	}

	// Malformed IDs are rejected up front.
	bctx := obs.WithJobID(ctxT(t), "-leading-dash")
	_, err = cl.Submit(bctx, JobSpec{Circuit: "s298", Random: 20})
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid ID: got %v, want 400", err)
	}
}

// TestJobIDUniqueUnderConcurrentSubmit hammers submission from 16
// goroutines and checks every minted ID is distinct — including against
// a client-supplied ID shaped like the server's own "j<seq>" names.
func TestJobIDUniqueUnderConcurrentSubmit(t *testing.T) {
	_, cl := startServer(t, Config{Workers: 4, QueueDepth: 32})
	ctx := ctxT(t)

	// Squat on "j3" so the mint loop has to skip it.
	if _, err := cl.Submit(obs.WithJobID(ctx, "j3"), JobSpec{Circuit: "s298", Random: 10}); err != nil {
		t.Fatalf("squat submit: %v", err)
	}

	const n = 16
	ids := make(chan string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			v, err := cl.Submit(ctx, JobSpec{Circuit: "s298", Random: 10, Seed: seed})
			if err != nil {
				t.Errorf("concurrent submit: %v", err)
				return
			}
			ids <- v.ID
		}(int64(i + 1))
	}
	wg.Wait()
	close(ids)
	seen := map[string]bool{"j3": true}
	for id := range ids {
		if seen[id] {
			t.Fatalf("duplicate job ID %q", id)
		}
		seen[id] = true
	}
}

// TestObservabilityDoesNotChangeDetections is the no-Heisenberg gate:
// attaching a logger and flight recorder must not perturb simulation
// results. The same spec runs against an instrumented server and a bare
// one; detections must match exactly.
func TestObservabilityDoesNotChangeDetections(t *testing.T) {
	ob := &obs.Observer{Metrics: obs.NewRegistry()}
	lg := obs.NewLogger(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelDebug}))
	_, instrumented := startServer(t, Config{
		Workers: 2, Obs: ob, Log: lg, FlightEvents: 64,
	})
	_, bare := startServer(t, Config{Workers: 2})
	ctx := ctxT(t)

	for _, engine := range []string{"csim-MV", "csim-grid"} {
		spec := JobSpec{Circuit: "s298", Engine: engine, Random: 40, Seed: 7}
		a, err := instrumented.Run(ctx, spec, time.Millisecond)
		if err != nil {
			t.Fatalf("%s instrumented: %v", engine, err)
		}
		b, err := bare.Run(ctx, spec, time.Millisecond)
		if err != nil {
			t.Fatalf("%s bare: %v", engine, err)
		}
		if a.Result == nil || b.Result == nil {
			t.Fatalf("%s: nil result (instrumented %v, bare %v)", engine, a.Result, b.Result)
		}
		if a.Result.Detected != b.Result.Detected || a.Result.PotOnly != b.Result.PotOnly {
			t.Errorf("%s: instrumented det/pot %d/%d != bare %d/%d",
				engine, a.Result.Detected, a.Result.PotOnly, b.Result.Detected, b.Result.PotOnly)
		}
	}
}

// TestTimedOutJobPostmortemHasDecide forces an auto-planned grid job to
// time out and checks its /debug postmortem still carries the
// scheduler's verdict: Decide runs (and is recorded) before the
// engine's cancellation check, so even a job that never simulates a
// cycle explains what shape it would have run.
func TestTimedOutJobPostmortemHasDecide(t *testing.T) {
	_, cl := startServer(t, Config{Workers: 1})
	ctx := ctxT(t)
	spec := JobSpec{Circuit: "s5378", Engine: "csim-grid", Random: 200000, Seed: 1, TimeoutMS: 1}
	v, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	fv := waitTerminal(t, cl, v.ID)
	if fv.Status != StatusFailed || !strings.Contains(fv.Error, "timeout") {
		t.Fatalf("job status %s, error %q, want timeout failure", fv.Status, fv.Error)
	}

	pm, err := cl.Debug(ctx, v.ID)
	if err != nil {
		t.Fatalf("debug: %v", err)
	}
	if pm.JobID != v.ID || pm.Status != StatusFailed {
		t.Fatalf("postmortem job %q status %s, want %q failed", pm.JobID, pm.Status, v.ID)
	}
	var kinds []string
	var decide string
	for _, ev := range pm.Events {
		kinds = append(kinds, ev.Kind)
		if ev.Kind == "decide" {
			decide = ev.Detail
		}
	}
	for _, want := range []string{"admitted", "queued", "run_start", "decide", "finish"} {
		found := false
		for _, k := range kinds {
			if k == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("postmortem missing %q event (got %v)", want, kinds)
		}
	}
	if decide != "" && !strings.Contains(decide, "plan") {
		t.Errorf("decide event %q does not explain the plan", decide)
	}
}

// TestDebugRouteErrors pins the /debug endpoint's failure modes.
func TestDebugRouteErrors(t *testing.T) {
	_, cl := startServer(t, Config{Workers: 1})
	ctx := ctxT(t)
	var ae *APIError
	if _, err := cl.Debug(ctx, "nope"); !errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound {
		t.Fatalf("debug of unknown job: got %v, want 404", err)
	}
	v, err := cl.Submit(ctx, JobSpec{Circuit: "s298", Random: 10})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitTerminal(t, cl, v.ID)
	req, _ := http.NewRequestWithContext(ctx, http.MethodDelete, cl.BaseURL+"/api/v1/jobs/"+v.ID+"/debug", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("raw delete: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /debug: status %d, want 405", resp.StatusCode)
	}
}

// TestLogLineCarriesCorrelation runs one correlated job with a capturing
// JSON handler and checks the admit and run records carry the job ID,
// phase and engine keys the schema promises.
func TestLogLineCarriesCorrelation(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	lg := obs.NewLogger(slog.NewJSONHandler(&lockedWriter{mu: &mu, w: &buf},
		&slog.HandlerOptions{Level: slog.LevelDebug}))
	_, cl := startServer(t, Config{Workers: 1, Log: lg})
	ctx := obs.WithJobID(ctxT(t), "corr-77")
	v, err := cl.Submit(ctx, JobSpec{Circuit: "s298", Engine: "csim-grid", Random: 40, Seed: 7})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitTerminal(t, cl, v.ID)

	mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.Unlock()
	var sawAdmit, sawDecide bool
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if rec["msg"] == "job admitted" && rec["job_id"] == "corr-77" && rec["engine"] == "csim-grid" {
			sawAdmit = true
		}
		if rec["msg"] == "sched decide" && rec["job_id"] == "corr-77" && rec["phase"] == "decide" {
			sawDecide = true
		}
	}
	if !sawAdmit {
		t.Errorf("no admit record with job_id/engine attrs in %d lines", len(lines))
	}
	if !sawDecide {
		t.Errorf("no correlated decide record in %d lines", len(lines))
	}
}

// lockedWriter serializes handler writes so the test can read the buffer
// without racing the server's goroutines.
type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}
