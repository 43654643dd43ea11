package main

import (
	"testing"
	"time"
)

// TestSummarize: on a shuffled sample of 1…100 ms each percentile is
// the sample's own nearest-rank value, and min, max and mean are exact.
func TestSummarize(t *testing.T) {
	var sample []time.Duration
	for i := 100; i >= 1; i-- {
		sample = append(sample, time.Duration(i)*time.Millisecond)
	}
	sample[10], sample[60] = sample[60], sample[10]
	ms := time.Millisecond
	want := latency{n: 100, wall: time.Second, min: ms, p50: 50 * ms, p90: 90 * ms, p99: 99 * ms, max: 100 * ms, mean: 50500 * time.Microsecond}
	if got := summarize(sample, time.Second); got != want {
		t.Errorf("summarize(1…100 ms) = %+v, want %+v", got, want)
	}
	if got := summarize(nil, time.Second); got != (latency{wall: time.Second}) {
		t.Errorf("summarize(empty) = %+v, want a zero summary", got)
	}
}
