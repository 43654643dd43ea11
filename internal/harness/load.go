package harness

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
)

// LatencySummary aggregates a load run's per-job latencies into the
// cells a serve-mode report prints: count, throughput and the usual
// percentile ladder.
type LatencySummary struct {
	// Count is the number of observations.
	Count int
	// Wall is the whole run's wall-clock span (throughput denominator).
	Wall time.Duration
	// Min, P50, P90, P99 and Max are the latency percentiles.
	Min, P50, P90, P99, Max time.Duration
	// Mean is the arithmetic-mean latency.
	Mean time.Duration
}

// quantileBuckets is the nanosecond layout Summarize estimates its
// percentiles over: 2x exponential steps from ~1µs to ~37min, wide
// enough for a timed-out 5m job and fine enough (~2x resolution) for a
// load report. The service's Retry-After hint runs the same Quantile
// code over its own layout — one quantile implementation, two layouts.
var quantileBuckets = obs.ExpBuckets(1024, 2, 42)

// Summarize computes a LatencySummary over per-job latencies observed
// during one wall-clock window. Count, Min, Max and Mean are exact; the
// percentile ladder is estimated with obs.Histogram.Quantile — the one
// shared quantile implementation — by observing the samples into the
// exponential quantileBuckets layout and interpolating. A nil/empty
// sample yields a zero summary.
func Summarize(latencies []time.Duration, wall time.Duration) LatencySummary {
	s := LatencySummary{Count: len(latencies), Wall: wall}
	if len(latencies) == 0 {
		return s
	}
	sorted := append([]time.Duration(nil), latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	h := obs.NewHistogram(quantileBuckets)
	for _, d := range sorted {
		sum += d
		h.Observe(d.Nanoseconds())
	}
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	s.Mean = sum / time.Duration(len(sorted))
	// Bucket interpolation can land outside the observed range (the
	// estimate lives on bucket bounds, the extremes are exact) — clamp so
	// the ladder stays monotone against Min and Max.
	q := func(p float64) time.Duration {
		d := time.Duration(h.Quantile(p))
		if d < s.Min {
			return s.Min
		}
		if d > s.Max {
			return s.Max
		}
		return d
	}
	s.P50 = q(0.50)
	s.P90 = q(0.90)
	s.P99 = q(0.99)
	return s
}

// Throughput is jobs per second over the wall-clock window (0 when the
// window is empty).
func (s LatencySummary) Throughput() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Count) / s.Wall.Seconds()
}

// String renders the one-line latency report csimload prints.
func (s LatencySummary) String() string {
	return fmt.Sprintf("n=%d wall=%s rate=%.1f/s min=%s p50=%s p90=%s p99=%s max=%s",
		s.Count, s.Wall.Round(time.Millisecond), s.Throughput(),
		s.Min.Round(time.Microsecond), s.P50.Round(time.Microsecond),
		s.P90.Round(time.Microsecond), s.P99.Round(time.Microsecond),
		s.Max.Round(time.Microsecond))
}
