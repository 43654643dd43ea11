package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("evals")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if again := r.Counter("evals"); again != c {
		t.Fatalf("re-registering a counter must return the same handle")
	}

	g := r.Gauge("cur_elems")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatalf("registering %q as gauge after counter must panic", "x")
		}
	}()
	r.Gauge("x")
}

// TestHistogramBucketEdges pins the boundary semantics: a value lands in
// the first bucket whose bound is >= the value; values above the last
// bound land in the overflow bucket; negatives land in the first bucket.
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []int64{10, 100, 1000})

	cases := []struct {
		v      int64
		bucket int
	}{
		{-5, 0},   // below everything
		{0, 0},    // min in-range
		{9, 0},    // strictly inside first
		{10, 0},   // exact first bound → first bucket
		{11, 1},   // just past first bound
		{100, 1},  // exact middle bound
		{1000, 2}, // exact last bound
		{1001, 3}, // overflow
	}
	for _, tc := range cases {
		h.Observe(tc.v)
	}
	_, counts := h.Buckets()
	want := make([]int64, 4)
	var sum int64
	for _, tc := range cases {
		want[tc.bucket]++
		sum += tc.v
	}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, counts[i], want[i], counts)
		}
	}
	if h.Count() != int64(len(cases)) || h.Sum() != sum {
		t.Fatalf("count/sum = %d/%d, want %d/%d", h.Count(), h.Sum(), len(cases), sum)
	}
}

func TestHistogramReregisterDifferentBoundsPanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", []int64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatalf("re-registering with different bounds must panic")
		}
	}()
	r.Histogram("h", []int64{1, 3})
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1000, 4, 5)
	want := []int64{1000, 4000, 16000, 64000, 256000}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

func TestSnapshotAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(3)
	r.Gauge("a.level").Set(-1)
	r.Histogram("c.hist", []int64{5}).Observe(7)

	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d points, want 3", len(snap))
	}
	// Sorted by name.
	if snap[0].Name != "a.level" || snap[1].Name != "b.count" || snap[2].Name != "c.hist" {
		t.Fatalf("snapshot order wrong: %+v", snap)
	}
	if snap[2].Count != 1 || snap[2].Buckets[1] != 1 {
		t.Fatalf("histogram point wrong: %+v", snap[2])
	}
	if p, ok := r.Get("b.count"); !ok || p.Value != 3 {
		t.Fatalf("Get(b.count) = %+v, %v", p, ok)
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []Point `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteJSON emitted invalid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.Metrics) != 3 {
		t.Fatalf("JSON round-trip lost metrics: %+v", doc.Metrics)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("shared")
			g := r.Gauge(fmt.Sprintf("worker%d.depth", w))
			h := r.Histogram("hist", []int64{8, 64})
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Set(int64(i))
				h.Observe(int64(i % 100))
			}
		}(w)
	}
	wg.Wait()
	if p, _ := r.Get("shared"); p.Value != 8000 {
		t.Fatalf("shared counter = %d, want 8000", p.Value)
	}
	if p, _ := r.Get("hist"); p.Count != 8000 {
		t.Fatalf("hist count = %d, want 8000", p.Count)
	}
}

func TestFaultLogFilterAndLimit(t *testing.T) {
	l := NewFaultLog(10, []int32{2, 5}, 3)
	if l.tracks(3) || !l.tracks(2) || !l.tracks(5) {
		t.Fatalf("filter wrong")
	}
	for i := 0; i < 5; i++ {
		l.Emit(FaultEvent{Vec: int32(i), Fault: 2, Kind: FaultDiverged})
		l.Emit(FaultEvent{Vec: int32(i), Fault: 3, Kind: FaultDiverged}) // filtered out
	}
	events, clipped := l.Events()
	if len(events) != 3 || !clipped {
		t.Fatalf("got %d events (clipped=%v), want 3 clipped", len(events), clipped)
	}

	all := NewFaultLog(10, nil, 0)
	if !all.tracks(9) {
		t.Fatalf("nil ids must track every fault")
	}

	if got := events[0].Kind.String(); got != "diverged" {
		t.Fatalf("event kind spelled %q, want diverged", got)
	}
}

func TestObserverNilSafety(t *testing.T) {
	var o *Observer
	if o.FaultLog() != nil || o.Logger() != nil || o.Recorder() != nil {
		t.Fatalf("nil observer must hand out nil sinks")
	}

	o2 := &Observer{} // all sinks nil
	if o2.FaultLog() != nil || o2.Logger() != nil || o2.Recorder() != nil {
		t.Fatalf("empty observer must hand out nil sinks")
	}
	if o2.Metrics.Counter("c") != nil {
		t.Fatalf("nil registry must hand out nil counters")
	}
}

func TestServeEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("csim.evals").Add(123)
	mux := http.NewServeMux()
	Register(mux, r)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}

	if body := get("/metricsz"); !strings.Contains(body, "csim.evals") {
		t.Fatalf("/metricsz missing registry metric:\n%s", body)
	}
	if body := get("/metricsz?format=prometheus"); !strings.Contains(body, "csim_evals 123") {
		t.Fatalf("/metricsz?format=prometheus missing registry metric:\n%s", body)
	}
	if body := get("/debug/pprof/goroutine?debug=1"); !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/goroutine not serving:\n%s", body)
	}
}
