package obs

import (
	"fmt"
	"sync"
	"time"
)

// DefaultFlightEvents is the flight-recorder ring capacity used when a
// caller passes a non-positive one.
const DefaultFlightEvents = 256

// FlightEvent is one entry in a job's flight recorder: a timestamped
// lifecycle marker (admitted, queued, cache hit/miss, scheduler
// verdict, shard start/finish, merge, finish).
type FlightEvent struct {
	// Time is when the event was recorded.
	Time time.Time `json:"time"`
	// Kind is the event class (admitted, queued, cache, decide,
	// shard_start, shard_finish, merge, run_start, finish).
	Kind string `json:"kind"`
	// Detail is the human-readable specifics (chosen plan, shard index
	// and fault count, ...).
	Detail string `json:"detail,omitempty"`
}

// FlightRecorder is a bounded ring buffer of FlightEvents, one per job:
// cheap enough to run on every job, complete enough that dumping it on
// failure/timeout/cancellation yields a useful postmortem. Once the
// ring is full the oldest events are overwritten and counted as
// dropped. The nil *FlightRecorder is the disabled state: Record and
// Recordf no-op (Recordf before formatting, so disabled call sites pay
// no fmt cost), Events returns nil.
type FlightRecorder struct {
	limit int // ring capacity; buf grows on demand up to it
	mu    sync.Mutex
	//simlint:guarded_by(mu)
	buf []FlightEvent
	//simlint:guarded_by(mu)
	next int // write position once the ring is full
	//simlint:guarded_by(mu)
	dropped int64
}

// NewFlightRecorder builds a recorder holding at most capacity events
// (DefaultFlightEvents when capacity <= 0). The ring is not allocated
// up front: a typical job records a handful of events, and a server
// retains thousands of finished jobs with their recorders.
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightEvents
	}
	return &FlightRecorder{limit: capacity}
}

// Record appends one event, evicting the oldest when the ring is full.
func (f *FlightRecorder) Record(kind, detail string) {
	if f == nil {
		return
	}
	ev := FlightEvent{Time: time.Now(), Kind: kind, Detail: detail}
	f.mu.Lock()
	if len(f.buf) < f.limit {
		f.buf = append(f.buf, ev)
	} else {
		f.buf[f.next] = ev
		f.next++
		if f.next == len(f.buf) {
			f.next = 0
		}
		f.dropped++
	}
	f.mu.Unlock()
}

// Recordf is Record with fmt.Sprintf formatting for the detail; the
// format work happens after the nil check, so a disabled recorder costs
// only the check.
func (f *FlightRecorder) Recordf(kind, format string, args ...any) {
	if f == nil {
		return
	}
	f.Record(kind, fmt.Sprintf(format, args...))
}

// Events returns the retained events oldest-first (nil on a nil
// recorder).
func (f *FlightRecorder) Events() []FlightEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	// next stays 0 until the ring is full, so this is oldest-first in
	// both states.
	out := make([]FlightEvent, 0, len(f.buf))
	out = append(out, f.buf[f.next:]...)
	return append(out, f.buf[:f.next]...)
}

// Len returns the number of retained events (0 on nil).
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.buf)
}

// Dropped returns how many events were evicted to make room (0 on nil).
func (f *FlightRecorder) Dropped() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped
}
