package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Causal tracing. A trace is the set of events sharing one TraceID — one
// logical operation (a client update, an anti-entropy round) followed
// across goroutines, subsystems, and the RPC wire. Each timed region is a
// span: it has its own SpanID, a Parent linking it into the tree, and is
// recorded as an ordinary Event when it ends, so every existing Tracer
// (TraceBuffer, SlowOps, flight recorder) sees spans for free.
//
// The API is deliberately minimal and allocation-free when disabled: a
// Span is a small value, StartSpan on a nil/Nop tracer or a zero parent
// returns the zero Span, and End on the zero Span is a no-op.

// A TraceID identifies one causal trace; zero means "untraced".
type TraceID uint64

// A SpanID identifies one span within a trace; zero means "no span".
type SpanID uint64

// A SpanContext is the portable part of a span: enough to parent children
// to it, locally or across the RPC wire.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether the context belongs to a real trace.
func (sc SpanContext) Valid() bool { return sc.Trace != 0 }

// idCounter feeds newID; idSeed decorrelates IDs across processes without
// needing a random source on the hot path.
var (
	idCounter atomic.Uint64
	idSeed    = uint64(time.Now().UnixNano()) | 1
)

// newID returns a non-zero pseudo-random 64-bit ID: an atomic counter fed
// through a splitmix64 finalizer, seeded per process. Cheap (one atomic
// add, a few multiplies), collision-resistant enough for debugging traces.
func newID() uint64 {
	for {
		x := idCounter.Add(1) + idSeed
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}

// NewRootContext mints a fresh trace with a root span, independent of any
// tracer. Clients use it to stamp an outgoing request so the server-side
// spans all land in one trace even though the client records nothing.
func NewRootContext() SpanContext {
	return SpanContext{Trace: TraceID(newID()), Span: SpanID(newID())}
}

// NewSpanID mints a fresh span ID, for callers that assemble span Events
// by hand (already holding the timestamps) instead of going through
// StartSpan/End.
func NewSpanID() SpanID { return SpanID(newID()) }

// A Span is an in-progress timed region. The zero Span is a valid no-op:
// End does nothing and Context returns the zero SpanContext.
type Span struct {
	tracer Tracer
	name   string
	start  time.Time
	ctx    SpanContext
	parent SpanID
}

// Context returns the span's context, for parenting children or sending
// across the wire.
func (s Span) Context() SpanContext { return s.ctx }

// Active reports whether the span will record anything (false for the
// zero, no-op Span).
func (s Span) Active() bool { return s.tracer != nil }

// StartSpan begins a span named name under parent. It returns the zero
// (no-op) Span when t is nil or Nop or parent carries no trace, so an
// untraced call path pays two comparisons and allocates nothing.
func StartSpan(t Tracer, parent SpanContext, name string) Span {
	if t == nil || t == Nop || parent.Trace == 0 {
		return Span{}
	}
	return Span{
		tracer: t,
		name:   name,
		start:  time.Now(),
		ctx:    SpanContext{Trace: parent.Trace, Span: SpanID(newID())},
		parent: parent.Span,
	}
}

// StartRoot begins a new trace rooted at a fresh span. It returns the zero
// Span when t is nil or Nop.
func StartRoot(t Tracer, name string) Span {
	if t == nil || t == Nop {
		return Span{}
	}
	return Span{
		tracer: t,
		name:   name,
		start:  time.Now(),
		ctx:    NewRootContext(),
	}
}

// End finishes the span, emitting it as an Event whose Time is the span's
// start, Dur its elapsed time, and Trace/Span/Parent its identity. err and
// attrs annotate the event. End on the zero Span does nothing.
func (s Span) End(err error, attrs ...Attr) {
	if s.tracer == nil {
		return
	}
	s.tracer.Emit(Event{
		Name:   s.name,
		Time:   s.start,
		Dur:    time.Since(s.start),
		Err:    err,
		Trace:  s.ctx.Trace,
		Span:   s.ctx.Span,
		Parent: s.parent,
		Attrs:  attrs,
	})
}

// A TraceBuffer is a Tracer that collects recent traced events (those with
// a non-zero TraceID) in a ring, indexed so a whole trace can be pulled
// out by ID — the span collector behind /debug/trace and `nsctl trace`.
// The ring is allocated at the first traced event, so a process nobody
// traces holds none for the collector to scan.
type TraceBuffer struct {
	mu     sync.Mutex
	size   int
	ring   []Event // nil until the first traced event
	next   int
	filled bool
}

// NewTraceBuffer returns a TraceBuffer keeping the most recent n traced
// events.
func NewTraceBuffer(n int) *TraceBuffer {
	if n <= 0 {
		n = 1024
	}
	return &TraceBuffer{size: n}
}

// Emit implements Tracer; untraced events are dropped.
func (b *TraceBuffer) Emit(e Event) {
	if e.Trace == 0 {
		return
	}
	b.mu.Lock()
	if b.ring == nil {
		b.ring = make([]Event, b.size)
	}
	b.ring[b.next] = e
	b.next++
	if b.next == len(b.ring) {
		b.next = 0
		b.filled = true
	}
	b.mu.Unlock()
}

// all returns the buffered events, oldest first. Caller must hold b.mu.
func (b *TraceBuffer) all() []Event {
	if !b.filled {
		return b.ring[:b.next]
	}
	out := make([]Event, 0, len(b.ring))
	out = append(out, b.ring[b.next:]...)
	out = append(out, b.ring[:b.next]...)
	return out
}

// Trace returns every buffered event belonging to id, oldest first.
func (b *TraceBuffer) Trace(id TraceID) []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []Event
	for _, e := range b.all() {
		if e.Trace == id {
			out = append(out, e)
		}
	}
	return out
}

// TraceSummary describes one trace present in the buffer.
type TraceSummary struct {
	Trace  TraceID
	Root   string // name of the first (oldest) event seen for the trace
	Events int
	Start  time.Time
}

// Traces lists the distinct traces in the buffer, most recent first.
func (b *TraceBuffer) Traces() []TraceSummary {
	b.mu.Lock()
	defer b.mu.Unlock()
	idx := make(map[TraceID]int)
	var out []TraceSummary
	for _, e := range b.all() {
		i, ok := idx[e.Trace]
		if !ok {
			idx[e.Trace] = len(out)
			out = append(out, TraceSummary{Trace: e.Trace, Root: e.Name, Events: 1, Start: e.Time})
			continue
		}
		out[i].Events++
		if !e.Time.IsZero() && (out[i].Start.IsZero() || e.Time.Before(out[i].Start)) {
			out[i].Start = e.Time
			out[i].Root = e.Name
		}
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// WriteTimeline renders a trace's events as an indented timeline: one line
// per span, sorted by start time, indented by parent depth, with the
// offset from the trace's first event and each span's duration. Events
// whose Parent is absent from the set (the roots, or spans whose parent
// fell out of the ring) start at depth zero.
func WriteTimeline(w io.Writer, events []Event) {
	if len(events) == 0 {
		fmt.Fprintln(w, "(no events)")
		return
	}
	evs := append([]Event(nil), events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time.Before(evs[j].Time) })
	t0 := evs[0].Time
	parent := make(map[SpanID]SpanID, len(evs))
	for _, e := range evs {
		if e.Span != 0 {
			parent[e.Span] = e.Parent
		}
	}
	depthOf := func(id SpanID) int {
		d := 0
		for id != 0 {
			p, ok := parent[id]
			if !ok || d > len(evs) { // absent parent or a cycle: stop
				break
			}
			id = p
			if id != 0 {
				d++
			}
		}
		return d
	}
	for _, e := range evs {
		d := 0
		if e.Parent != 0 {
			if _, ok := parent[e.Parent]; ok {
				d = depthOf(e.Parent) + 1
			}
		}
		off := e.Time.Sub(t0)
		fmt.Fprintf(w, "%10s  %*s%s", off.Round(time.Microsecond), 2*d, "", e.Name)
		if e.Dur != 0 {
			fmt.Fprintf(w, " (%v)", e.Dur.Round(time.Microsecond))
		}
		for _, a := range e.Attrs {
			fmt.Fprintf(w, " %s=%v", a.Key, a.Value)
		}
		if e.Err != nil {
			fmt.Fprintf(w, " err=%q", e.Err.Error())
		}
		fmt.Fprintln(w)
	}
}
