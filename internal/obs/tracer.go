package obs

import (
	"sync"
	"time"
)

// Phase classifies a trace event, following the Chrome trace_event
// phase letters.
type Phase byte

const (
	// PhaseInstant marks a point event.
	PhaseInstant Phase = 'i'
	// PhaseBegin opens a span; a matching PhaseEnd closes it.
	PhaseBegin Phase = 'B'
	// PhaseEnd closes the most recent PhaseBegin with the same
	// (PID, TID).
	PhaseEnd Phase = 'E'
	// PhaseComplete is a self-contained span with a duration.
	PhaseComplete Phase = 'X'
)

// Event is one tracer entry. Category and name are expected to be
// static strings on hot paths so emission never allocates.
type Event struct {
	// TS is the event time in nanoseconds since the tracer started.
	TS int64
	// Dur is the span duration in nanoseconds (PhaseComplete only).
	Dur int64
	// PID and TID locate the event in the simulated process tree; both
	// are 0 for host-side events (study passes, self-samples).
	PID, TID int
	// Phase classifies the event.
	Phase Phase
	// Cat groups related events (e.g. "fpspy", "study", "self").
	Cat string
	// Name identifies the event within its category.
	Name string
	// ArgName names the numeric argument; empty when Arg is unused.
	ArgName string
	// Arg is a single numeric payload.
	Arg uint64
}

// Tracer is a bounded ring buffer of Events. When the ring is full the
// oldest events are overwritten and counted as dropped; Emitted and
// Dropped let reconciliation tests account for every event ever sent.
// All methods are nil-safe: a nil *Tracer discards everything, so
// instrumented code can hold a tracer unconditionally.
type Tracer struct {
	mu    sync.Mutex
	ring  []Event
	next  uint64 // total events ever emitted
	start time.Time
}

// NewTracer creates a tracer with the given ring capacity (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{ring: make([]Event, capacity), start: time.Now()}
}

// Now returns the tracer clock: nanoseconds since NewTracer. A nil
// tracer reads 0.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.start).Nanoseconds()
}

// Emit appends one event. Emission into a live tracer takes a mutex and
// writes into preallocated storage — no allocation.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ring[t.next%uint64(len(t.ring))] = ev
	t.next++
	t.mu.Unlock()
}

// Instant emits a point event stamped with the tracer clock.
func (t *Tracer) Instant(cat, name string, pid, tid int, argName string, arg uint64) {
	if t == nil {
		return
	}
	t.Emit(Event{TS: t.Now(), Phase: PhaseInstant, Cat: cat, Name: name,
		PID: pid, TID: tid, ArgName: argName, Arg: arg})
}

// Complete emits a self-contained span.
func (t *Tracer) Complete(cat, name string, pid, tid int, startNS, durNS int64, argName string, arg uint64) {
	if t == nil {
		return
	}
	t.Emit(Event{TS: startNS, Dur: durNS, Phase: PhaseComplete, Cat: cat,
		Name: name, PID: pid, TID: tid, ArgName: argName, Arg: arg})
}

// Emitted returns how many events were ever emitted.
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}

// Dropped returns how many events were overwritten by ring wrap.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.next <= uint64(len(t.ring)) {
		return 0
	}
	return t.next - uint64(len(t.ring))
}

// Capacity returns the ring size in events.
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return len(t.ring)
}

// Events returns the surviving events in emission order (oldest first).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.next
	cap64 := uint64(len(t.ring))
	if n <= cap64 {
		return append([]Event(nil), t.ring[:n]...)
	}
	out := make([]Event, 0, cap64)
	first := n % cap64
	out = append(out, t.ring[first:]...)
	out = append(out, t.ring[:first]...)
	return out
}
