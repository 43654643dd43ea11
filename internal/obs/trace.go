package obs

import (
	"encoding/json"
	"io"
	"runtime"
	"sync"
	"time"
)

// Tracer records span-style phase timings (parse → collapse →
// macro-extract → good-sim → fault-sim → merge) and serializes them as a
// chrome://tracing JSON document. The nil *Tracer is the disabled state:
// Span returns a nil *Span whose End is a no-op.
type Tracer struct {
	// AllocDeltas samples runtime.MemStats at span boundaries and
	// annotates each span with the bytes allocated inside it. Sampling
	// costs a runtime.ReadMemStats per boundary — enable only for
	// coarse phases, never per-cycle.
	AllocDeltas bool

	mu     sync.Mutex
	t0     time.Time
	spans  []spanRecord
	inited bool
}

type spanRecord struct {
	Name       string
	Start, Dur time.Duration
	AllocBytes int64 // -1 when not sampled
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Span opens a span. Close it with End.
func (t *Tracer) Span(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	if !t.inited {
		t.t0 = time.Now()
		t.inited = true
	}
	t0 := t.t0
	t.mu.Unlock()
	sp := &Span{t: t, name: name, start: time.Since(t0), alloc0: -1}
	if t.AllocDeltas {
		sp.alloc0 = int64(readAllocBytes())
	}
	return sp
}

// Span is one open phase. End is nil-safe.
type Span struct {
	t      *Tracer
	name   string
	start  time.Duration
	alloc0 int64
}

// End closes the span, recording wall-clock (and, when enabled, the
// allocation delta) on the tracer.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	t := sp.t
	end := time.Since(t.t0)
	rec := spanRecord{
		Name:  sp.name,
		Start: sp.start, Dur: end - sp.start,
		AllocBytes: -1,
	}
	if sp.alloc0 >= 0 {
		rec.AllocBytes = int64(readAllocBytes()) - sp.alloc0
	}
	t.mu.Lock()
	t.spans = append(t.spans, rec)
	t.mu.Unlock()
}

// readAllocBytes returns cumulative heap allocation.
func readAllocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// chromeEvent is one entry of the chrome://tracing JSON array format:
// "X" (complete) events with microsecond timestamps.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds since trace start
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChrome serializes the recorded spans as a chrome://tracing (and
// Perfetto) compatible JSON document.
func (t *Tracer) WriteChrome(w io.Writer) error {
	var events []chromeEvent
	if t != nil {
		t.mu.Lock()
		for _, s := range t.spans {
			ev := chromeEvent{
				Name: s.Name, Ph: "X",
				TS:  float64(s.Start.Nanoseconds()) / 1e3,
				Dur: float64(s.Dur.Nanoseconds()) / 1e3,
				PID: 1,
			}
			if s.AllocBytes >= 0 {
				ev.Args = map[string]any{"alloc_bytes": s.AllocBytes}
			}
			events = append(events, ev)
		}
		t.mu.Unlock()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events})
}
