// Package obs is the simulation observability layer: a typed metric
// registry (counters, gauges, fixed-bucket histograms), a span-style phase
// tracer emitting chrome://tracing JSON, a fault-lifecycle event log, and
// the /metricsz + pprof HTTP handlers.
//
// The package is built around a nil fast path: every handle method —
// Counter.Add, Gauge.Set, Histogram.Observe, Tracer.Span, Span.End,
// FaultLog.Emit — is a no-op on a nil receiver, and a nil *Registry hands
// out nil handles. An engine therefore registers its metrics once at
// construction and instruments its hot paths unconditionally; when
// observability is disabled the instrumentation folds to an inlined nil
// check with zero allocations (asserted by this package's benchmarks and
// the CI regression gate).
//
// All handles are safe for concurrent use (atomics), so concurrent jobs
// publish into one shared registry without locking.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind classifies a registered metric.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the snapshot spelling of the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("kind(%d)", k)
}

// Counter is a monotonically increasing metric. The nil Counter is a
// valid no-op handle.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time value. The nil Gauge is a valid no-op handle.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// SetMax raises the gauge to v if v is greater (high-water marks).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into a fixed ascending bucket layout.
// An observation v lands in the first bucket with v <= bound; values
// above the last bound land in the implicit overflow bucket. The nil
// Histogram is a valid no-op handle.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last = overflow
	sum    atomic.Int64
	n      atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Buckets returns the bucket bounds and per-bucket counts; the final
// count is the overflow bucket (values above the last bound).
func (h *Histogram) Buckets() (bounds []int64, counts []int64) {
	if h == nil {
		return nil, nil
	}
	bounds = append([]int64(nil), h.bounds...)
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the observed
// distribution by linear interpolation inside the fixed bucket layout:
// the target rank q·n is located in the cumulative bucket counts and
// mapped to a value between the bucket's lower and upper bound. The
// first bucket interpolates from 0; ranks landing in the overflow
// bucket clamp to the last bound (there is no upper edge to
// interpolate toward). Returns 0 on a nil or empty histogram. This is
// the one quantile implementation in the tree — the load harness and
// the service's Retry-After hint both call it.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	// Sum a consistent view of the per-bucket counts rather than trusting
	// h.n: concurrent Observe calls bump counts and n separately, and the
	// walk below must never run past its own total.
	counts := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		if c == 0 {
			cum += c
			continue
		}
		if float64(cum+c) < rank {
			cum += c
			continue
		}
		if i == len(h.bounds) {
			// Overflow bucket: unbounded above, clamp to the last bound.
			return float64(h.bounds[len(h.bounds)-1])
		}
		lo := float64(0)
		if i > 0 {
			lo = float64(h.bounds[i-1])
		}
		hi := float64(h.bounds[i])
		frac := (rank - float64(cum)) / float64(c)
		if frac < 0 {
			frac = 0
		} else if frac > 1 {
			frac = 1
		}
		return lo + frac*(hi-lo)
	}
	return float64(h.bounds[len(h.bounds)-1])
}

// NewHistogram builds a standalone histogram with the given ascending
// bounds, outside any registry — for callers that want Observe/Quantile
// over a private sample set (the load harness) without publishing a
// metric. Panics if bounds are empty or not strictly ascending.
func NewHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: NewHistogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: NewHistogram bounds not ascending")
		}
	}
	return &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// ExpBuckets builds n ascending bounds starting at start, each factor
// times the previous — the fixed layouts used for durations and sizes.
func ExpBuckets(start, factor int64, n int) []int64 {
	if start <= 0 || factor < 2 || n <= 0 {
		panic("obs: ExpBuckets needs start > 0, factor >= 2, n > 0")
	}
	out := make([]int64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// metric is one registry entry.
type metric struct {
	name string
	kind Kind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry holds named metrics. The nil *Registry is the disabled state:
// it hands out nil handles whose methods are no-ops.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*metric
	order  []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*metric{}}
}

func (r *Registry) lookup(name string, kind Kind) *metric {
	m, ok := r.byName[name]
	if !ok {
		return nil
	}
	if m.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s",
			name, m.kind, kind))
	}
	return m
}

// Counter registers (or returns the existing) counter under name. A nil
// registry returns a nil handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.lookup(name, KindCounter); m != nil {
		return m.c
	}
	m := &metric{name: name, kind: KindCounter, c: &Counter{}}
	r.byName[name] = m
	r.order = append(r.order, m)
	return m.c
}

// Gauge registers (or returns the existing) gauge under name. A nil
// registry returns a nil handle.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.lookup(name, KindGauge); m != nil {
		return m.g
	}
	m := &metric{name: name, kind: KindGauge, g: &Gauge{}}
	r.byName[name] = m
	r.order = append(r.order, m)
	return m.g
}

// Histogram registers (or returns the existing) histogram under name with
// the given ascending bounds. A nil registry returns a nil handle;
// re-registering with different bounds panics.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.lookup(name, KindHistogram); m != nil {
		if len(m.h.bounds) != len(bounds) {
			panic(fmt.Sprintf("obs: histogram %q re-registered with different bounds", name))
		}
		for i := range bounds {
			if m.h.bounds[i] != bounds[i] {
				panic(fmt.Sprintf("obs: histogram %q re-registered with different bounds", name))
			}
		}
		return m.h
	}
	h := &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	m := &metric{name: name, kind: KindHistogram, h: h}
	r.byName[name] = m
	r.order = append(r.order, m)
	return m.h
}

// Point is one metric in a snapshot.
type Point struct {
	// Name is the registered metric name.
	Name string `json:"name"`
	// Kind is the metric kind's snapshot spelling.
	Kind string `json:"kind"`
	// Value is the counter or gauge value.
	Value int64 `json:"value,omitempty"`

	// Count is the histogram observation count.
	Count int64 `json:"count,omitempty"`
	// Sum is the histogram's observed-value sum.
	Sum int64 `json:"sum,omitempty"`
	// Bounds are the histogram's ascending bucket bounds.
	Bounds []int64 `json:"bounds,omitempty"`
	// Buckets are the per-bucket counts: len(Bounds)+1, last = overflow.
	Buckets []int64 `json:"buckets,omitempty"`
}

// Snapshot returns the current value of every metric, sorted by name. A
// nil registry snapshots empty.
func (r *Registry) Snapshot() []Point {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	metrics := append([]*metric(nil), r.order...)
	r.mu.Unlock()
	out := make([]Point, 0, len(metrics))
	for _, m := range metrics {
		p := Point{Name: m.name, Kind: m.kind.String()}
		switch m.kind {
		case KindCounter:
			p.Value = m.c.Value()
		case KindGauge:
			p.Value = m.g.Value()
		case KindHistogram:
			p.Count = m.h.Count()
			p.Sum = m.h.Sum()
			p.Bounds, p.Buckets = m.h.Buckets()
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Get returns the snapshot point for one metric and whether it exists.
func (r *Registry) Get(name string) (Point, bool) {
	for _, p := range r.Snapshot() {
		if p.Name == name {
			return p, true
		}
	}
	return Point{}, false
}

// WriteJSON writes the snapshot as an indented JSON document
// {"metrics": [...]}.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Metrics []Point `json:"metrics"`
	}{r.Snapshot()})
}

// Observer bundles the observability sinks an engine can be given. A
// nil *Observer — and any nil field of a non-nil one — disables that
// aspect with the zero-cost fast path.
type Observer struct {
	// Metrics receives counter/gauge/histogram updates.
	Metrics *Registry
	// Tracer records span-style phase timings.
	Tracer *Tracer
	// Faults records per-fault lifecycle events.
	Faults *FaultLog
	// Log receives structured log records (nil disables logging).
	Log *Logger
	// Flight receives job-lifecycle flight-recorder events.
	Flight *FlightRecorder
}

// Registry returns the metric registry (nil when disabled).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// FaultLog returns the fault-lifecycle log (nil when disabled).
func (o *Observer) FaultLog() *FaultLog {
	if o == nil {
		return nil
	}
	return o.Faults
}

// Logger returns the structured logger (nil when disabled).
func (o *Observer) Logger() *Logger {
	if o == nil {
		return nil
	}
	return o.Log
}

// Recorder returns the flight recorder (nil when disabled).
func (o *Observer) Recorder() *FlightRecorder {
	if o == nil {
		return nil
	}
	return o.Flight
}

// Span opens a span on the observer's tracer (nil-safe).
func (o *Observer) Span(name string) *Span {
	if o == nil {
		return nil
	}
	return o.Tracer.Span(name)
}

// SpanTID opens a span attributed to a specific trace lane (e.g. one
// service worker slot).
func (o *Observer) SpanTID(name string, tid int) *Span {
	if o == nil {
		return nil
	}
	return o.Tracer.SpanTID(name, tid)
}
