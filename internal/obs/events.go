package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// FaultEventKind enumerates the lifecycle stages of one faulty machine.
type FaultEventKind uint8

// The fault lifecycle. A fault is injected when its site is registered
// with a simulator, diverges when it first needs an explicit element at a
// gate, becomes visible when its output differs from the good machine at
// a fanout point, latches when a differing state is captured by a
// flip-flop (the only way a fault survives a cycle), may be potentially
// detected (X vs binary at a PO), is detected on a binary mismatch at a
// PO, and is dropped — its elements reclaimed — immediately after
// detection. Convergence events mark elements reclaimed because the
// faulty machine's state rejoined the good machine.
const (
	FaultInjected FaultEventKind = iota
	FaultDiverged
	FaultConverged
	FaultVisible
	FaultLatched
	FaultPotDetected
	FaultDetected
	FaultDropped
)

var faultEventNames = [...]string{
	FaultInjected:    "injected",
	FaultDiverged:    "diverged",
	FaultConverged:   "converged",
	FaultVisible:     "became-visible",
	FaultLatched:     "latched-to-FF",
	FaultPotDetected: "potentially-detected",
	FaultDetected:    "detected",
	FaultDropped:     "dropped",
}

// String returns the event-stream spelling of the kind.
func (k FaultEventKind) String() string {
	if int(k) < len(faultEventNames) {
		return faultEventNames[k]
	}
	return fmt.Sprintf("fault-event(%d)", k)
}

// FaultEvent is one lifecycle observation.
type FaultEvent struct {
	// Vec is the vector index; -1 for construction-time events.
	Vec int32 `json:"vec"`
	// Fault is the fault ID the event concerns.
	Fault int32 `json:"fault"`
	// Gate is the netlist gate (or macro root) where the event occurred.
	Gate int32 `json:"gate"`
	// Kind classifies the lifecycle transition.
	Kind FaultEventKind `json:"-"`
}

// MarshalJSON spells the kind symbolically.
func (e FaultEvent) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Vec   int32  `json:"vec"`
		Fault int32  `json:"fault"`
		Gate  int32  `json:"gate"`
		Event string `json:"event"`
	}{e.Vec, e.Fault, e.Gate, e.Kind.String()})
}

// FaultLog collects lifecycle events for a sampled subset of fault IDs
// (the -trace-faults filter). The nil *FaultLog is the disabled state:
// Tracks reports false and Emit is a no-op. A single log may be shared by
// concurrent simulators; Emit serializes internally.
type FaultLog struct {
	track []bool // nil = track every fault
	limit int

	mu      sync.Mutex
	events  []FaultEvent
	clipped bool
}

// DefaultFaultLogLimit caps an unbounded log (tracking every fault on a
// large run would otherwise dominate memory).
const DefaultFaultLogLimit = 1 << 20

// NewFaultLog returns a log tracking the given fault IDs out of a
// universe of n faults; ids == nil tracks every fault. limit <= 0 uses
// DefaultFaultLogLimit.
func NewFaultLog(n int, ids []int32, limit int) *FaultLog {
	l := &FaultLog{limit: limit}
	if l.limit <= 0 {
		l.limit = DefaultFaultLogLimit
	}
	if ids != nil {
		l.track = make([]bool, n)
		for _, id := range ids {
			if id >= 0 && int(id) < n {
				l.track[id] = true
			}
		}
	}
	return l
}

// Tracks reports whether fault f is sampled (false on nil).
func (l *FaultLog) Tracks(f int32) bool {
	if l == nil {
		return false
	}
	if l.track == nil {
		return true
	}
	return int(f) < len(l.track) && l.track[f]
}

// Emit records one event if the fault is sampled and the log has room.
func (l *FaultLog) Emit(ev FaultEvent) {
	if l == nil || !l.Tracks(ev.Fault) {
		return
	}
	l.mu.Lock()
	if len(l.events) < l.limit {
		l.events = append(l.events, ev)
	} else {
		l.clipped = true
	}
	l.mu.Unlock()
}

// Events returns a copy of the recorded events in emission order.
// Clipped reports whether the limit discarded any.
func (l *FaultLog) Events() (events []FaultEvent, clipped bool) {
	if l == nil {
		return nil, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]FaultEvent(nil), l.events...), l.clipped
}

// WriteJSON writes the event stream as an indented JSON document
// {"events": [...], "clipped": bool}.
func (l *FaultLog) WriteJSON(w io.Writer) error {
	events, clipped := l.Events()
	if events == nil {
		events = []FaultEvent{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Events  []FaultEvent `json:"events"`
		Clipped bool         `json:"clipped"`
	}{events, clipped})
}
