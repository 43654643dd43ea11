package obs

import (
	"log/slog"
	"testing"
)

// TestNilObsZeroAllocs is the disabled-path regression gate (run in CI):
// every handle operation on the nil fast path must cost zero heap
// allocations, so engines can instrument hot loops unconditionally.
func TestNilObsZeroAllocs(t *testing.T) {
	var (
		r  *Registry
		c  *Counter
		g  *Gauge
		h  *Histogram
		l  *FaultLog
		o  *Observer
		lg *Logger
		fr *FlightRecorder
	)
	checks := map[string]func(){
		"counter.add":    func() { c.Add(1) },
		"gauge.set":      func() { g.Set(1) },
		"gauge.setmax":   func() { g.SetMax(1) },
		"hist.observe":   func() { h.Observe(1) },
		"hist.quantile":  func() { _ = h.Quantile(0.9) },
		"registry.hand":  func() { _ = r.Counter("x") },
		"faultlog.emit":  func() { l.Emit(FaultEvent{Fault: 1}) },
		"faultlog.track": func() { _ = l.Tracks(1) },
		"observer.span":  func() { o.Span("x").End() },
		// Note logger.With is absent: it is a per-job setup call whose
		// attrs intentionally escape into the handler, not a hot path.
		"logger.info":   func() { lg.Info("msg", slog.Int("shard", 1)) },
		"flight.record": func() { fr.Record("kind", "detail") },
	}
	for name, fn := range checks {
		if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op on the nil fast path, want 0", name, allocs)
		}
	}
}

// TestEnabledHandleZeroAllocs asserts the steady-state cost of enabled
// handles: after registration, Add/Set/Observe never allocate either.
func TestEnabledHandleZeroAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", ExpBuckets(1, 2, 10))
	checks := map[string]func(){
		"counter.add":  func() { c.Add(1) },
		"gauge.set":    func() { g.Set(1) },
		"hist.observe": func() { h.Observe(3) },
	}
	for name, fn := range checks {
		if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op on the enabled path, want 0", name, allocs)
		}
	}
}

// BenchmarkDisabledCounter measures the nil fast path an instrumented
// hot loop pays when observability is off: expected ~1 ns and 0 B/op.
func BenchmarkDisabledCounter(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchmarkDisabledHistogram is the nil fast path of Observe.
func BenchmarkDisabledHistogram(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

// BenchmarkDisabledFaultLog is the nil fast path of the lifecycle log.
func BenchmarkDisabledFaultLog(b *testing.B) {
	var l *FaultLog
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Emit(FaultEvent{Vec: int32(i), Fault: 1, Kind: FaultDiverged})
	}
}

// BenchmarkDisabledLogger is the nil fast path of structured logging:
// the attrs fold into a slice that never escapes (slog.LogAttrs copies
// them into the record's inline array), so the disabled cost is the nil
// check alone.
func BenchmarkDisabledLogger(b *testing.B) {
	var lg *Logger
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lg.Info("job running", slog.Int("shard", i))
	}
}

// BenchmarkDisabledFlight is the nil fast path of the flight recorder.
func BenchmarkDisabledFlight(b *testing.B) {
	var fr *FlightRecorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fr.Record("shard_start", "detail")
	}
}

// BenchmarkEnabledCounter is the enabled-path cost (one atomic add).
func BenchmarkEnabledCounter(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchmarkEnabledHistogram is the enabled-path cost of Observe over the
// standard exponential duration layout.
func BenchmarkEnabledHistogram(b *testing.B) {
	h := NewRegistry().Histogram("h", ExpBuckets(1000, 4, 12))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}
