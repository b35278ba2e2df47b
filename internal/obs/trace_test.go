package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// collector is a test Tracer that keeps every event it is sent.
type collector struct {
	mu  sync.Mutex
	evs []Event
}

func (c *collector) Emit(e Event) {
	c.mu.Lock()
	c.evs = append(c.evs, e)
	c.mu.Unlock()
}

func (c *collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.evs...)
}

func TestNewRootContext(t *testing.T) {
	a, b := NewRootContext(), NewRootContext()
	if !a.Valid() || !b.Valid() {
		t.Fatal("fresh root contexts must be valid")
	}
	if a.Trace == b.Trace || a.Span == b.Span {
		t.Errorf("ids must differ: %+v vs %+v", a, b)
	}
	if (SpanContext{}).Valid() {
		t.Error("zero SpanContext must be invalid")
	}
}

func TestSpanLifecycle(t *testing.T) {
	rec := &collector{}
	root := StartRoot(rec, "update.commit")
	if !root.Active() {
		t.Fatal("root span on a live tracer must be active")
	}
	child := StartSpan(rec, root.Context(), "wal.append")
	if !child.Active() {
		t.Fatal("child span must be active")
	}
	if child.Context().Trace != root.Context().Trace {
		t.Error("child must share the root's trace id")
	}
	if child.Context().Span == root.Context().Span {
		t.Error("child must get its own span id")
	}
	child.End(nil, A("seq", 7))
	root.End(fmt.Errorf("boom"))
	evs := rec.Events()
	if len(evs) != 2 {
		t.Fatalf("recorded %d events, want 2", len(evs))
	}
	c, r := evs[0], evs[1]
	if c.Name != "wal.append" || c.Parent != root.Context().Span || c.Trace != root.Context().Trace {
		t.Errorf("child event wrong: %+v", c)
	}
	if len(c.Attrs) != 1 || c.Attrs[0].Key != "seq" {
		t.Errorf("child attrs wrong: %+v", c.Attrs)
	}
	if r.Name != "update.commit" || r.Parent != 0 || r.Err == nil {
		t.Errorf("root event wrong: %+v", r)
	}
	if c.Time.IsZero() || c.Dur < 0 {
		t.Errorf("span event must carry start time and duration: %+v", c)
	}
}

func TestSpanDisabledPaths(t *testing.T) {
	live := &collector{}
	for name, s := range map[string]Span{
		"nil tracer":  StartSpan(nil, NewRootContext(), "x"),
		"nop tracer":  StartSpan(Nop, NewRootContext(), "x"),
		"zero parent": StartSpan(live, SpanContext{}, "x"),
		"nil root":    StartRoot(nil, "x"),
		"nop root":    StartRoot(Nop, "x"),
		"zero span":   {},
	} {
		if s.Active() {
			t.Errorf("%s: span must be inactive", name)
		}
		if s.Context().Valid() {
			t.Errorf("%s: inactive span must have a zero context", name)
		}
		s.End(fmt.Errorf("ignored")) // must not panic or record
	}
	if len(live.Events()) != 0 {
		t.Errorf("inactive spans recorded events: %v", live.Events())
	}
}

func TestMultiFlattensNested(t *testing.T) {
	var got []string
	ta := FuncTracer(func(e Event) { got = append(got, "a:"+e.Name) })
	tb := FuncTracer(func(e Event) { got = append(got, "b:"+e.Name) })
	tc := FuncTracer(func(e Event) { got = append(got, "c:"+e.Name) })
	m := Multi(ta, Multi(tb, tc))
	mt, ok := m.(multiTracer)
	if !ok {
		t.Fatalf("Multi(nested) = %T, want multiTracer", m)
	}
	if len(mt) != 3 {
		t.Fatalf("nested multiTracer not flattened: %d entries, want 3", len(mt))
	}
	m.Emit(Event{Name: "x"})
	if len(got) != 3 {
		t.Errorf("fan-out through flattened multi: %v", got)
	}
}

func TestTraceBufferCollectsByTrace(t *testing.T) {
	tb := NewTraceBuffer(16)
	t1, t2 := TraceID(1111), TraceID(2222)
	tb.Emit(Event{Name: "untraced"}) // dropped
	tb.Emit(Event{Name: "a1", Trace: t1, Span: 1, Time: time.Unix(10, 0)})
	tb.Emit(Event{Name: "b1", Trace: t2, Span: 2, Time: time.Unix(11, 0)})
	tb.Emit(Event{Name: "a2", Trace: t1, Span: 3, Time: time.Unix(12, 0)})
	evs := tb.Trace(t1)
	if len(evs) != 2 || evs[0].Name != "a1" || evs[1].Name != "a2" {
		t.Fatalf("Trace(t1) = %+v", evs)
	}
	if got := tb.Trace(TraceID(9999)); len(got) != 0 {
		t.Errorf("unknown trace returned events: %v", got)
	}
	ts := tb.Traces()
	if len(ts) != 2 {
		t.Fatalf("Traces() = %+v, want 2", ts)
	}
	// Newest first: t2 was first seen after t1.
	if ts[0].Trace != t2 || ts[1].Trace != t1 {
		t.Errorf("ordering: %+v", ts)
	}
	if ts[1].Events != 2 || ts[1].Root != "a1" {
		t.Errorf("summary for t1: %+v", ts[1])
	}
}

// TestTraceBufferRingOnFirstTrace: untraced events leave the ring
// unallocated and every enquiry empty; the first traced event allocates it.
func TestTraceBufferRingOnFirstTrace(t *testing.T) {
	tb := NewTraceBuffer(4096)
	for i := 0; i < 100; i++ {
		tb.Emit(Event{Name: "untraced", Span: SpanID(i + 1)})
	}
	if tb.ring != nil || len(tb.Traces()) != 0 || len(tb.Trace(1)) != 0 {
		t.Fatalf("untraced events allocated a ring of %d", len(tb.ring))
	}
	tb.Emit(Event{Name: "traced", Trace: 1, Span: 1})
	if len(tb.ring) != 4096 || len(tb.Trace(1)) != 1 {
		t.Fatalf("after a traced event: ring %d, trace %+v", len(tb.ring), tb.Trace(1))
	}
}

func TestTraceBufferWraps(t *testing.T) {
	tb := NewTraceBuffer(4)
	for i := 0; i < 10; i++ {
		tb.Emit(Event{Name: fmt.Sprintf("e%d", i), Trace: TraceID(77), Span: SpanID(i + 1)})
	}
	evs := tb.Trace(TraceID(77))
	if len(evs) != 4 || evs[0].Name != "e6" || evs[3].Name != "e9" {
		t.Errorf("ring tail = %+v", evs)
	}
}

func TestWriteTimeline(t *testing.T) {
	t0 := time.Unix(100, 0)
	events := []Event{
		{Name: "update.commit", Time: t0, Dur: 3 * time.Millisecond, Trace: 1, Span: 10},
		{Name: "wal.append", Time: t0.Add(time.Millisecond), Dur: time.Millisecond, Trace: 1, Span: 11, Parent: 10, Attrs: []Attr{A("seq", 4)}},
		{Name: "wal.sync", Time: t0.Add(2 * time.Millisecond), Dur: time.Millisecond, Trace: 1, Span: 12, Parent: 11, Err: fmt.Errorf("disk gone")},
	}
	var b strings.Builder
	WriteTimeline(&b, events)
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("timeline:\n%s", out)
	}
	if !strings.Contains(lines[0], "update.commit") || !strings.Contains(lines[1], "wal.append") {
		t.Errorf("ordering by time lost:\n%s", out)
	}
	// Children indent two spaces per depth level.
	if !strings.Contains(lines[1], "  wal.append") {
		t.Errorf("child not indented:\n%s", out)
	}
	if !strings.Contains(lines[2], "    wal.sync") {
		t.Errorf("grandchild not double-indented:\n%s", out)
	}
	if !strings.Contains(lines[1], "seq=4") || !strings.Contains(lines[2], `err="disk gone"`) {
		t.Errorf("attrs/err missing:\n%s", out)
	}

	var empty strings.Builder
	WriteTimeline(&empty, nil)
	if !strings.Contains(empty.String(), "no events") {
		t.Errorf("empty timeline = %q", empty.String())
	}
}

func TestWriteTimelineOrphanAndCycle(t *testing.T) {
	// An event whose parent fell out of the ring renders at depth zero,
	// and a parent cycle must not hang the renderer.
	events := []Event{
		{Name: "orphan", Time: time.Unix(1, 0), Trace: 1, Span: 5, Parent: 99},
		{Name: "selfloop", Time: time.Unix(2, 0), Trace: 1, Span: 6, Parent: 6},
	}
	var b strings.Builder
	WriteTimeline(&b, events)
	if !strings.Contains(b.String(), "orphan") || !strings.Contains(b.String(), "selfloop") {
		t.Errorf("timeline = %q", b.String())
	}
}

func TestEmitStampsTime(t *testing.T) {
	rec := &collector{}
	Emit(rec, Event{Name: "x"})
	evs := rec.Events()
	if len(evs) != 1 || evs[0].Time.IsZero() {
		t.Fatalf("Emit must stamp a zero Time: %+v", evs)
	}
	want := time.Unix(42, 0)
	Emit(rec, Event{Name: "y", Time: want})
	if evs = rec.Events(); !evs[1].Time.Equal(want) {
		t.Errorf("Emit must preserve an explicit Time: %v", evs[1].Time)
	}
}

func TestEventStringRendersTimestampAndTrace(t *testing.T) {
	e := Event{Name: "update.commit", Time: time.Date(2026, 8, 8, 9, 30, 1, 250000000, time.UTC), Trace: 0xabcd, Dur: time.Millisecond}
	s := e.String()
	if !strings.Contains(s, "09:30:01.250000") {
		t.Errorf("timestamp missing from %q", s)
	}
	if !strings.Contains(s, "trace=000000000000abcd") {
		t.Errorf("trace id missing from %q", s)
	}
	if plain := (Event{Name: "x"}).String(); strings.Contains(plain, "trace=") || strings.Contains(plain, ":") {
		t.Errorf("zero time/trace must not render: %q", plain)
	}
}

// --- allocation ceilings: the disabled paths must stay free ---

func TestEmitNopAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	e := Event{Name: "x", Dur: time.Millisecond}
	if n := testing.AllocsPerRun(200, func() { Emit(Nop, e) }); n != 0 {
		t.Errorf("Emit via Nop allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { Emit(nil, e) }); n != 0 {
		t.Errorf("Emit via nil allocates %.1f/op, want 0", n)
	}
}

func TestSlowOpsFilteredAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	s := SlowOps(time.Second, func(string, ...any) { t.Error("filtered event logged") })
	e := Event{Name: "fast", Dur: time.Millisecond}
	if n := testing.AllocsPerRun(200, func() { s.Emit(e) }); n != 0 {
		t.Errorf("filtered SlowOps.Emit allocates %.1f/op, want 0", n)
	}
}

func TestInactiveSpanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	sc := NewRootContext()
	if n := testing.AllocsPerRun(200, func() {
		s := StartSpan(Nop, sc, "x")
		s.End(nil)
	}); n != 0 {
		t.Errorf("StartSpan/End on Nop allocates %.1f/op, want 0", n)
	}
}
