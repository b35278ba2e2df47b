package obs

import (
	"fmt"
	"strings"
	"time"
)

// An Event is one structured trace record: an update committed, a
// checkpoint started or finished, replay progress, a log flush, a lock
// wait, an RPC call, a replica push or anti-entropy round. Dur is zero for
// instantaneous events; Err is nil for successful ones.
//
// Time is when the event began (for a span, its start; Time+Dur is its
// end). Trace/Span/Parent place the event in a causal trace: all events of
// one logical operation share a Trace, each span has its own Span ID, and
// Parent links it to the enclosing span. All three are zero for plain
// untraced events.
type Event struct {
	Name   string
	Time   time.Time
	Dur    time.Duration
	Err    error
	Trace  TraceID
	Span   SpanID
	Parent SpanID
	Attrs  []Attr
}

// An Attr is one key/value annotation on an event.
type Attr struct {
	Key   string
	Value any
}

// A formats an attribute.
func A(key string, value any) Attr { return Attr{Key: key, Value: value} }

// String renders the event on one line: timestamp, name, duration, error,
// attributes.
func (e Event) String() string {
	var b strings.Builder
	if !e.Time.IsZero() {
		b.WriteString(e.Time.Format("15:04:05.000000"))
		b.WriteByte(' ')
	}
	b.WriteString(e.Name)
	if e.Dur != 0 {
		fmt.Fprintf(&b, " dur=%v", e.Dur.Round(time.Microsecond))
	}
	if e.Trace != 0 {
		fmt.Fprintf(&b, " trace=%016x", uint64(e.Trace))
	}
	for _, a := range e.Attrs {
		fmt.Fprintf(&b, " %s=%v", a.Key, a.Value)
	}
	if e.Err != nil {
		fmt.Fprintf(&b, " err=%q", e.Err.Error())
	}
	return b.String()
}

// A Tracer receives structured events. Implementations must be safe for
// concurrent use; Emit is called on hot paths and should be cheap.
type Tracer interface {
	Emit(e Event)
}

// Nop is the default tracer; it discards every event.
var Nop Tracer = nopTracer{}

type nopTracer struct{}

func (nopTracer) Emit(Event) {}

// Emit sends e to t if t is non-nil and not Nop — the helper subsystems use
// so an unconfigured tracer costs one nil check. The event's Time is
// stamped at emit when the caller left it zero, so every recorded event is
// dated without each call site naming the clock.
func Emit(t Tracer, e Event) {
	if t == nil || t == Nop {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	t.Emit(e)
}

// FuncTracer adapts a function to the Tracer interface.
type FuncTracer func(Event)

// Emit implements Tracer.
func (f FuncTracer) Emit(e Event) { f(e) }

// Multi fans every event out to each tracer in order; nil entries are
// skipped, nested Multi results are flattened (so composing tracers in
// layers costs one dispatch, not a chain), and an empty set behaves as Nop.
func Multi(ts ...Tracer) Tracer {
	var live []Tracer
	for _, t := range ts {
		switch t := t.(type) {
		case nil:
		case nopTracer:
		case multiTracer:
			live = append(live, t...)
		default:
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return Nop
	case 1:
		return live[0]
	}
	return multiTracer(live)
}

type multiTracer []Tracer

func (m multiTracer) Emit(e Event) {
	for _, t := range m {
		t.Emit(e)
	}
}

// SlowOps returns a tracer that forwards to logf only the events whose
// duration meets threshold or that carry an error — the "why was that
// update slow" tracer a production daemon runs by default. Filtered events
// pay only the comparison: no formatting, no allocation.
func SlowOps(threshold time.Duration, logf func(format string, args ...any)) Tracer {
	return &slowOps{threshold: threshold, logf: logf}
}

type slowOps struct {
	threshold time.Duration
	logf      func(format string, args ...any)
}

// Emit implements Tracer.
func (s *slowOps) Emit(e Event) {
	if e.Err == nil && (e.Dur < s.threshold || e.Dur <= 0) {
		return
	}
	s.logf("obs: slow op: %s", e.String())
}
