package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"testing"
)

// TestHistogramQuantile pins the interpolation: a uniform fill of
// 1..100 into ten equal buckets must put the q-quantile at ~100q.
func TestHistogramQuantile(t *testing.T) {
	bounds := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	h := NewHistogram(bounds)
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0.50, 50}, {0.90, 90}, {0.99, 99}, {1.0, 100}, {0.0, 0},
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 1.0 {
			t.Errorf("Quantile(%v) = %v, want ~%v", tc.q, got, tc.want)
		}
	}
}

// TestHistogramQuantileEdges covers the empty, nil, and overflow cases.
func TestHistogramQuantileEdges(t *testing.T) {
	var nilH *Histogram
	if got := nilH.Quantile(0.5); got != 0 {
		t.Errorf("nil histogram Quantile = %v, want 0", got)
	}
	h := NewHistogram([]int64{10, 100})
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram Quantile = %v, want 0", got)
	}
	// All mass in the overflow bucket clamps to the last bound.
	h.Observe(5000)
	h.Observe(9000)
	if got := h.Quantile(0.5); got != 100 {
		t.Errorf("overflow Quantile = %v, want 100 (last bound)", got)
	}
}

// TestWritePrometheusGolden pins the scrape writer's output to exact
// bytes: nothing in the tree parses the format back, so the golden text
// is what keeps it a valid 0.0.4 exposition (cumulative buckets, the
// overflow bucket folded into le="+Inf", +Inf equal to _count).
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve.jobs_total").Add(7)
	r.Gauge("dist.worker0.healthy").Set(1)
	h := r.Histogram("serve.job_run_ns", ExpBuckets(1000, 10, 3))
	h.Observe(500)    // first bucket
	h.Observe(5000)   // second
	h.Observe(999999) // overflow
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	const want = `# HELP dist_worker0_healthy dist.worker0.healthy
# TYPE dist_worker0_healthy gauge
dist_worker0_healthy 1
# HELP serve_job_run_ns serve.job_run_ns
# TYPE serve_job_run_ns histogram
serve_job_run_ns_bucket{le="1000"} 1
serve_job_run_ns_bucket{le="10000"} 2
serve_job_run_ns_bucket{le="100000"} 2
serve_job_run_ns_bucket{le="+Inf"} 3
serve_job_run_ns_sum 1005499
serve_job_run_ns_count 3
# HELP serve_jobs_total serve.jobs_total
# TYPE serve_jobs_total counter
serve_jobs_total 7
`
	if got := buf.String(); got != want {
		t.Errorf("exposition changed:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestFlightRecorderWraparound fills a small ring past capacity and
// checks the retained window is the newest events, oldest-first, with
// the overwritten ones counted as dropped.
func TestFlightRecorderWraparound(t *testing.T) {
	fr := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		fr.Recordf("ev", "%d", i)
	}
	evs := fr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := fmt.Sprintf("%d", 6+i); ev.Detail != want {
			t.Errorf("event %d detail = %q, want %q", i, ev.Detail, want)
		}
		if ev.Kind != "ev" {
			t.Errorf("event %d kind = %q", i, ev.Kind)
		}
	}
	if got := fr.Dropped(); got != 6 {
		t.Errorf("Dropped = %d, want 6", got)
	}
	if got := fr.Len(); got != 4 {
		t.Errorf("Len = %d, want 4", got)
	}
	// Timestamps must be monotone non-decreasing oldest-first.
	for i := 1; i < len(evs); i++ {
		if evs[i].Time.Before(evs[i-1].Time) {
			t.Errorf("event %d timestamp before event %d", i, i-1)
		}
	}
}

// TestFlightRecorderGrowsOnDemand pins that a recorder holds memory for
// the events it has, not for its limit: a server retains thousands of
// finished jobs, each with a handful of events.
func TestFlightRecorderGrowsOnDemand(t *testing.T) {
	fr := NewFlightRecorder(DefaultFlightEvents)
	if c := cap(fr.buf); c != 0 {
		t.Errorf("empty recorder holds %d event slots", c)
	}
	for i := 0; i < 6; i++ {
		fr.Record("ev", "")
	}
	if c := cap(fr.buf); c >= DefaultFlightEvents/4 {
		t.Errorf("6 events hold %d slots of a %d limit", c, DefaultFlightEvents)
	}
	if fr.Len() != 6 || fr.Dropped() != 0 {
		t.Errorf("Len = %d, Dropped = %d, want 6 and 0", fr.Len(), fr.Dropped())
	}
}

// TestFlightRecorderNil pins the disabled state.
func TestFlightRecorderNil(t *testing.T) {
	var fr *FlightRecorder
	fr.Record("x", "y")
	fr.Recordf("x", "%d", 1)
	if fr.Events() != nil || fr.Len() != 0 || fr.Dropped() != 0 {
		t.Error("nil recorder must be inert")
	}
}

// TestLoggerAttrs checks the JSON handler path end-to-end: With-bound
// attrs plus per-record attrs all land in the record.
func TestLoggerAttrs(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	jl := lg.With(slog.String("job_id", "j42"), slog.String("engine", "csim-grid"))
	jl.Info("job running", slog.String("phase", "run"), slog.Int("shard", 3))
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("log record is not JSON: %v (%q)", err, buf.String())
	}
	for k, want := range map[string]any{
		"msg": "job running", "job_id": "j42", "engine": "csim-grid",
		"phase": "run", "shard": float64(3), "level": "INFO",
	} {
		if rec[k] != want {
			t.Errorf("record[%q] = %v, want %v", k, rec[k], want)
		}
	}
	if !lg.Enabled(slog.LevelDebug) {
		t.Error("Enabled(debug) = false on a debug-level handler")
	}
}

// TestLoggerNil pins the disabled state: nil in, nil out, no panics.
func TestLoggerNil(t *testing.T) {
	if NewLogger(nil) != nil {
		t.Error("NewLogger(nil) must return the disabled logger")
	}
	var lg *Logger
	if lg.With(slog.String("k", "v")) != nil {
		t.Error("nil.With must stay nil")
	}
	lg.Debug("x")
	lg.Info("x")
	lg.Warn("x")
	lg.Error("x")
	if lg.Enabled(slog.LevelError) {
		t.Error("nil logger must report disabled")
	}
}

// TestJobIDContext round-trips the correlation ID through a context.
func TestJobIDContext(t *testing.T) {
	ctx := context.Background()
	if got := JobIDFrom(ctx); got != "" {
		t.Errorf("JobIDFrom(empty ctx) = %q, want empty", got)
	}
	ctx = WithJobID(ctx, "grid-7")
	if got := JobIDFrom(ctx); got != "grid-7" {
		t.Errorf("JobIDFrom = %q, want grid-7", got)
	}
}
