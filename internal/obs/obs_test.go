package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"smalldb/internal/vfs"
)

// --- counters and gauges ---

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
	if got := c.String(); got != "42" {
		t.Fatalf("String = %q, want \"42\"", got)
	}
}

func TestGaugeBasics(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 7 {
		t.Fatalf("Value = %d, want 7", got)
	}
}

func TestConcurrentCounter(t *testing.T) {
	var c Counter
	var g Gauge
	h := NewHistogram()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(i))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != workers*perWorker {
		t.Errorf("gauge = %d, want %d", got, workers*perWorker)
	}
	if got := h.Snapshot().Count; got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// Nil metric handles must be usable: that is the whole wiring story.
func TestNilMetricsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var r *Registry
	c.Inc()
	c.Add(5)
	_ = c.Value()
	_ = c.String()
	g.Set(1)
	g.Add(1)
	g.Inc()
	g.Dec()
	_ = g.Value()
	h.Observe(1)
	h.ObserveDuration(time.Second)
	h.ObserveSince(time.Now())
	if s := h.Snapshot(); s.Count != 0 {
		t.Errorf("nil histogram snapshot count = %d", s.Count)
	}
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Error("nil registry should hand out nil metrics")
	}
	r.Register("x", 1)
	r.Each(func(string, any) { t.Error("nil registry Each should not call fn") })
	Emit(nil, Event{Name: "e"})
}

// --- histogram buckets ---

func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {math.MaxInt64, 63},
	}
	for _, c := range cases {
		b := bucketOf(c.v)
		if b != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, b, c.bucket)
			continue
		}
		lo, hi := bucketBounds(b)
		v := c.v
		if v < 0 {
			v = 0
		}
		if v < lo || v >= hi && !(b >= 63 && hi == math.MaxInt64) {
			t.Errorf("value %d outside its bucket %d bounds [%d, %d)", c.v, b, lo, hi)
		}
	}
	// Bounds must tile the non-negative int64 line with no gaps.
	for i := 1; i < numBuckets; i++ {
		_, prevHi := bucketBounds(i - 1)
		lo, _ := bucketBounds(i)
		if i <= 63 && prevHi != lo {
			t.Errorf("gap between bucket %d (hi %d) and %d (lo %d)", i-1, prevHi, i, lo)
		}
	}
}

// --- percentile math ---

func TestQuantileUniform(t *testing.T) {
	h := NewHistogram()
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 1000 || s.Sum != 1000*1001/2 || s.Max != 1000 {
		t.Fatalf("count/sum/max = %d/%d/%d", s.Count, s.Sum, s.Max)
	}
	// The true p50 of 1..1000 is 500; log buckets quantize to the
	// containing octave [256,512), so the estimate must land there.
	if s.P50 < 256 || s.P50 >= 512 {
		t.Errorf("P50 = %d, want within [256, 512)", s.P50)
	}
	// p90=900 and p99=990 both live in [512,1024), but the estimate is
	// clamped to the exact max.
	if s.P90 < 512 || s.P90 > 1000 {
		t.Errorf("P90 = %d, want within [512, 1000]", s.P90)
	}
	if s.P99 < s.P90 || s.P99 > 1000 {
		t.Errorf("P99 = %d, want within [P90, 1000]", s.P99)
	}
	if got := s.Quantile(1.0); got != 1000 {
		t.Errorf("Quantile(1.0) = %d, want exact max 1000", got)
	}
	if got := s.Quantile(0); got > s.P50 {
		t.Errorf("Quantile(0) = %d, want ≤ P50 %d", got, s.P50)
	}
}

func TestQuantileSingleValue(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(100)
	}
	s := h.Snapshot()
	lo, _ := bucketBounds(bucketOf(100))
	for _, q := range []float64{0.5, 0.9, 0.99, 1} {
		got := s.Quantile(q)
		if got < lo || got > 100 {
			t.Errorf("Quantile(%v) = %d, want within [%d, 100]", q, got, lo)
		}
	}
	if s.Max != 100 || s.Mean != 100 {
		t.Errorf("Max/Mean = %d/%d, want 100/100", s.Max, s.Mean)
	}
}

func TestQuantileEmptyAndZero(t *testing.T) {
	var h Histogram
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %d, want 0", got)
	}
	h.Observe(0)
	h.Observe(-7) // clamps to 0
	s := h.Snapshot()
	if s.Count != 2 || s.Max != 0 || s.P99 != 0 {
		t.Errorf("zero-only snapshot: count=%d max=%d p99=%d", s.Count, s.Max, s.P99)
	}
}

func TestSnapshotStringsAndBar(t *testing.T) {
	h := NewHistogram()
	h.Observe(int64(3 * time.Millisecond))
	s := h.Snapshot()
	if got := s.DurationString(); !strings.Contains(got, "count=1") {
		t.Errorf("DurationString = %q", got)
	}
	if got := s.SizeString(); !strings.Contains(got, "total=") {
		t.Errorf("SizeString = %q", got)
	}
	if got := s.Bar(20, nil); !strings.Contains(got, "#") {
		t.Errorf("Bar = %q, want at least one bar", got)
	}
	if got := (Snapshot{}).Bar(20, nil); !strings.Contains(got, "empty") {
		t.Errorf("empty Bar = %q", got)
	}
}

// --- tracer ---

func TestMultiFanOut(t *testing.T) {
	var a, b []string
	ta := FuncTracer(func(e Event) { a = append(a, e.Name) })
	tb := FuncTracer(func(e Event) { b = append(b, e.Name) })
	m := Multi(ta, nil, Nop, tb)
	m.Emit(Event{Name: "x"})
	m.Emit(Event{Name: "y"})
	if len(a) != 2 || len(b) != 2 || a[1] != "y" || b[0] != "x" {
		t.Fatalf("fan-out: a=%v b=%v", a, b)
	}
	// Collapsing: all-nop input yields Nop, single tracer comes back as-is.
	if got := Multi(nil, Nop); got != Nop {
		t.Errorf("Multi(nil, Nop) = %#v, want Nop", got)
	}
	if got := Multi(ta, nil); fmt.Sprintf("%p", got) != fmt.Sprintf("%p", ta) {
		t.Errorf("Multi(single) should return the tracer itself")
	}
}

func TestSlowOpsFilter(t *testing.T) {
	var lines []string
	tr := SlowOps(10*time.Millisecond, func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	})
	tr.Emit(Event{Name: "fast", Dur: time.Millisecond})
	tr.Emit(Event{Name: "slow", Dur: 20 * time.Millisecond})
	tr.Emit(Event{Name: "failed", Err: fmt.Errorf("boom")})
	if len(lines) != 2 {
		t.Fatalf("logged %d lines, want 2 (slow + failed): %v", len(lines), lines)
	}
	if !strings.Contains(lines[0], "slow") || !strings.Contains(lines[1], "boom") {
		t.Errorf("lines = %v", lines)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Name: "update.commit", Dur: 2 * time.Millisecond, Attrs: []Attr{A("seq", 7)}}
	s := e.String()
	for _, want := range []string{"update.commit", "seq=7"} {
		if !strings.Contains(s, want) {
			t.Errorf("Event.String() = %q, missing %q", s, want)
		}
	}
}

// --- registry ---

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("hits")
	c1.Inc()
	if c2 := r.Counter("hits"); c2 != c1 {
		t.Error("second Counter(hits) returned a different object")
	}
	// A name registered as one kind cannot come back as another.
	if g := r.Gauge("hits"); g != nil {
		t.Error("Gauge(hits) on a counter name should return nil")
	}
	if h := r.Histogram("hits"); h != nil {
		t.Error("Histogram(hits) on a counter name should return nil")
	}
	r.Histogram("lat_ns").Observe(100)
	r.Register("custom", func() any { return 9 })
	names := r.Names()
	if len(names) != 3 {
		t.Fatalf("Names = %v, want 3 entries", names)
	}
	snap := r.Snapshot()
	if snap["custom"] != 9 {
		t.Errorf("snapshot custom = %v, want evaluated func result 9", snap["custom"])
	}
	if snap["hits"] != uint64(1) {
		t.Errorf("snapshot hits = %v (%T), want 1", snap["hits"], snap["hits"])
	}
}

func TestRegistryJSONAndText(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops").Add(3)
	r.Histogram("commit_ns").ObserveDuration(2 * time.Millisecond)
	r.Histogram("payload_bytes").Observe(4096)
	var jsonBuf strings.Builder
	if err := r.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(jsonBuf.String()), &decoded); err != nil {
		t.Fatalf("WriteJSON output is not JSON: %v\n%s", err, jsonBuf.String())
	}
	if decoded["ops"] != float64(3) {
		t.Errorf("ops = %v", decoded["ops"])
	}
	if _, ok := decoded["commit_ns"].(map[string]any); !ok {
		t.Errorf("commit_ns = %v, want histogram object", decoded["commit_ns"])
	}
	var textBuf strings.Builder
	r.WriteText(&textBuf)
	text := textBuf.String()
	if !strings.Contains(text, "ops") || !strings.Contains(text, "2ms") {
		t.Errorf("WriteText missing duration formatting:\n%s", text)
	}
	if !strings.Contains(text, "4.0KB") {
		t.Errorf("WriteText missing size formatting:\n%s", text)
	}
}

func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("shared").Inc()
				r.Histogram(fmt.Sprintf("h%d", w%3)).Observe(int64(i))
				_ = r.Snapshot()
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8*200 {
		t.Errorf("shared = %d, want %d", got, 8*200)
	}
}

// --- HTTP mux ---

func TestMuxEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("core_updates").Add(12)
	r.Histogram("core_update_commit_ns").ObserveDuration(time.Millisecond)
	fr, err := OpenFlight(FlightConfig{FS: vfs.NewMem(1)})
	if err != nil {
		t.Fatal(err)
	}
	fr.Emit(Event{Name: "update.commit", Dur: time.Millisecond})
	base := serveAdmin(t, r, AdminOptions{Flight: fr})

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, b.String()
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	if m["core_updates"] != float64(12) {
		t.Errorf("/metrics core_updates = %v, want 12", m["core_updates"])
	}

	code, body = get("/stats")
	if code != http.StatusOK || !strings.Contains(body, "core_updates") {
		t.Errorf("/stats status %d body %q", code, body)
	}
	if !strings.Contains(body, "update.commit") {
		t.Errorf("/stats missing flight recorder events:\n%s", body)
	}
	code, body = get("/stats?buckets=1")
	if code != http.StatusOK || !strings.Contains(body, "#") {
		t.Errorf("/stats?buckets=1 should render distributions, got %d:\n%s", code, body)
	}

	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", code)
	}
	if code, _ := get("/"); code != http.StatusOK {
		t.Errorf("/ status %d", code)
	}
}

func TestServeAdmin(t *testing.T) {
	a, err := ServeAdmin("127.0.0.1:0", NewRegistry(), AdminOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	resp, err := http.Get("http://" + a.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	// maxConns requests at once, on a server that has served none, are
	// all served.
	base := serveAdmin(t, NewRegistry(), AdminOptions{})
	var wg sync.WaitGroup
	for i := 0; i < maxConns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(base + "/stats")
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("concurrent /stats status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	var nilSrv *AdminServer
	if err := nilSrv.Close(); err != nil {
		t.Errorf("nil AdminServer.Close = %v", err)
	}
}
