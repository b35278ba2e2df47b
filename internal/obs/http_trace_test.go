package obs

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"smalldb/internal/vfs"
)

// serveAdmin starts the admin endpoint on a loopback port until the test
// ends and returns its base URL.
func serveAdmin(t *testing.T, r *Registry, opts AdminOptions) string {
	t.Helper()
	a, err := ServeAdmin("127.0.0.1:0", r, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return "http://" + a.Addr
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return resp.StatusCode, string(b)
}

func TestDebugTraceEndpoint(t *testing.T) {
	tb := NewTraceBuffer(64)
	base := serveAdmin(t, NewRegistry(), AdminOptions{Traces: tb})

	// Empty collector: the list must say so rather than 500 or hang.
	if code, body := getBody(t, base+"/debug/trace"); code != http.StatusOK || !strings.Contains(body, "no traces recorded") {
		t.Errorf("empty list: %d %q", code, body)
	}

	// Record one two-span trace and fetch its timeline by hex id.
	root := StartRoot(tb, "update.commit")
	child := StartSpan(tb, root.Context(), "wal.sync")
	child.End(nil, A("seq", 3))
	root.End(nil)
	id := uint64(root.Context().Trace)

	code, body := getBody(t, base+"/debug/trace")
	if code != http.StatusOK || !strings.Contains(body, fmt.Sprintf("%016x", id)) || !strings.Contains(body, "update.commit") {
		t.Errorf("trace list: %d\n%s", code, body)
	}
	code, body = getBody(t, fmt.Sprintf("%s/debug/trace?id=%016x", base, id))
	if code != http.StatusOK || !strings.Contains(body, "update.commit") || !strings.Contains(body, "  wal.sync") {
		t.Errorf("timeline: %d\n%s", code, body)
	}
	if !strings.Contains(body, "seq=3") {
		t.Errorf("timeline missing attrs:\n%s", body)
	}

	// Unknown id says so; a non-hex id is a 400.
	if _, body := getBody(t, base+"/debug/trace?id=abcdef"); !strings.Contains(body, "no events") {
		t.Errorf("unknown id: %q", body)
	}
	if code, _ := getBody(t, base+"/debug/trace?id=zzz"); code != http.StatusBadRequest {
		t.Errorf("bad id status %d, want 400", code)
	}
}

func TestDebugFlightEndpoint(t *testing.T) {
	fr, err := OpenFlight(FlightConfig{FS: vfs.NewMem(1), FlushEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	fr.Emit(Event{Name: "update.commit", Dur: time.Millisecond})
	base := serveAdmin(t, NewRegistry(), AdminOptions{Flight: fr})

	code, body := getBody(t, base+"/debug/flight")
	if code != http.StatusOK || !strings.Contains(body, "flight.start") || !strings.Contains(body, "update.commit") {
		t.Errorf("/debug/flight: %d\n%s", code, body)
	}

	// Without a flight recorder the route falls through to the index 404.
	bare := serveAdmin(t, NewRegistry(), AdminOptions{})
	if code, _ := getBody(t, bare+"/debug/flight"); code != http.StatusNotFound {
		t.Errorf("unconfigured /debug/flight status %d, want 404", code)
	}
}

func TestStatsRendersEventTimestamps(t *testing.T) {
	fr, err := OpenFlight(FlightConfig{FS: vfs.NewMem(1)})
	if err != nil {
		t.Fatal(err)
	}
	fr.Emit(Event{Name: "update.commit", Time: time.Date(2026, 8, 8, 14, 5, 9, 123456000, time.Local), Dur: time.Millisecond})
	base := serveAdmin(t, NewRegistry(), AdminOptions{Flight: fr})
	code, body := getBody(t, base+"/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats status %d", code)
	}
	if !strings.Contains(body, "14:05:09.123456") {
		t.Errorf("/stats recent events missing wall-clock timestamps:\n%s", body)
	}
}

func TestDebugFlightEmptyRing(t *testing.T) {
	// A recorder whose only event hasn't happened yet can't occur via
	// OpenFlight (it stamps flight.start), so exercise the empty branch
	// with a zero-value ring the way a future constructor might.
	fr := &FlightRecorder{slots: 4, mem: make([]Event, 4)}
	base := serveAdmin(t, NewRegistry(), AdminOptions{Flight: fr})
	if code, body := getBody(t, base+"/debug/flight"); code != http.StatusOK || !strings.Contains(body, "no flight events") {
		t.Errorf("empty flight tail: %d %q", code, body)
	}
}

// TestAdminProfilesAndRefusals covers the profiling routes that replace
// net/http/pprof and the responder's answers to requests it refuses.
func TestAdminProfilesAndRefusals(t *testing.T) {
	base := serveAdmin(t, NewRegistry(), AdminOptions{})
	if code, body := getBody(t, base+"/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "heap") {
		t.Errorf("/debug/pprof/: %d %q", code, body)
	}
	if code, body := getBody(t, base+"/debug/pprof/heap?debug=1"); code != http.StatusOK || !strings.Contains(body, "# runtime.MemStats") {
		t.Errorf("/debug/pprof/heap?debug=1: %d, MemStats missing", code)
	}
	if code, body := getBody(t, base+"/debug/pprof/profile?seconds=1"); code != http.StatusOK || !strings.HasPrefix(body, "\x1f\x8b") {
		t.Errorf("/debug/pprof/profile: %d, %d bytes, want a gzipped profile", code, len(body))
	}
	if code, _ := getBody(t, base+"/debug/pprof/profile?seconds=x"); code != http.StatusBadRequest {
		t.Errorf("bad seconds status %d, want 400", code)
	}
	for _, path := range []string{"/debug/vars", "/debug/pprof/cmdline", "/nope"} {
		if code, _ := getBody(t, base+path); code != http.StatusNotFound {
			t.Errorf("%s status %d, want 404", path, code)
		}
	}
	for _, req := range []string{
		"POST /metrics HTTP/1.1\r\n\r\n",
		"GET /metrics HTTP/1.1\r\nX: " + strings.Repeat("a", maxRequest) + "\r\n\r\n",
	} {
		c, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		go c.Write([]byte(req))
		resp, _ := io.ReadAll(c)
		c.Close()
		if !strings.HasPrefix(string(resp), "HTTP/1.1 400 Bad Request\r\n") {
			t.Errorf("%.20q... answered %.40q, want 400", req, resp)
		}
	}
}
