package obs

import (
	"fmt"
	"sync"
	"time"
)

// DefaultFlightEvents is the flight-recorder ring capacity.
const DefaultFlightEvents = 256

// flightStartEvents is the room a new recorder's ring starts with: a
// typical job records about a dozen events, so it never grows.
const flightStartEvents = 16

// FlightEvent is one entry in a job's flight recorder: a timestamped
// lifecycle marker (admitted, queued, cache hit/miss, worker-count
// decision, shard start/finish, merge, finish).
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
	mu sync.Mutex
	// buf starts with room for flightStartEvents and grows on demand up
	// to DefaultFlightEvents.
	//simlint:guarded_by(mu)
	buf []FlightEvent
	//simlint:guarded_by(mu)
	next int // write position once the ring is full
	//simlint:guarded_by(mu)
	dropped int64
	// clipped is set by Clip: from then on the ring grows by one event at
	// a time.
	//simlint:guarded_by(mu)
	clipped bool
}

// NewFlightRecorder builds a recorder holding at most DefaultFlightEvents
// events. The ring starts with room for 16 and grows from there; a
// server retains thousands of finished jobs with their recorders, and
// Clip drops what a finished job's ring does not use.
func NewFlightRecorder() *FlightRecorder {
	return &FlightRecorder{buf: make([]FlightEvent, 0, flightStartEvents)}
}

// Record appends one event, evicting the oldest when the ring is full.
func (f *FlightRecorder) Record(kind, detail string) {
	if f == nil {
		return
	}
	ev := FlightEvent{Time: time.Now(), Kind: kind, Detail: detail}
	f.mu.Lock()
	if len(f.buf) < DefaultFlightEvents {
		if f.clipped && len(f.buf) == cap(f.buf) {
			f.buf = append(make([]FlightEvent, 0, len(f.buf)+1), f.buf...)
		}
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

// Clip drops the ring's spare capacity: what it started with beyond the
// events recorded, or what appends grew it by, up to as much again as it
// holds. A server keeps a finished job's recorder for
// late lookups, and the job records little after its finish (a held
// request's delivery), so from a clip on each Record grows the ring by
// exactly one event.
func (f *FlightRecorder) Clip() {
	if f == nil {
		return
	}
	f.mu.Lock()
	if len(f.buf) < cap(f.buf) {
		f.buf = append(make([]FlightEvent, 0, len(f.buf)), f.buf...)
	}
	f.clipped = true
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

// Dropped returns how many events were evicted to make room (0 on nil).
func (f *FlightRecorder) Dropped() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped
}
