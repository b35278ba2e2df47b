package obs

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"smalldb/internal/vfs"
)

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
	srv := httptest.NewServer(NewMux(NewRegistry(), MuxOptions{Traces: tb}))
	defer srv.Close()

	// Empty collector: the list must say so rather than 500 or hang.
	if code, body := getBody(t, srv.URL+"/debug/trace"); code != http.StatusOK || !strings.Contains(body, "no traces recorded") {
		t.Errorf("empty list: %d %q", code, body)
	}

	// Record one two-span trace and fetch its timeline by hex id.
	root := StartRoot(tb, "update.commit")
	child := StartSpan(tb, root.Context(), "wal.sync")
	child.End(nil, A("seq", 3))
	root.End(nil)
	id := uint64(root.Context().Trace)

	code, body := getBody(t, srv.URL+"/debug/trace")
	if code != http.StatusOK || !strings.Contains(body, fmt.Sprintf("%016x", id)) || !strings.Contains(body, "update.commit") {
		t.Errorf("trace list: %d\n%s", code, body)
	}
	code, body = getBody(t, fmt.Sprintf("%s/debug/trace?id=%016x", srv.URL, id))
	if code != http.StatusOK || !strings.Contains(body, "update.commit") || !strings.Contains(body, "  wal.sync") {
		t.Errorf("timeline: %d\n%s", code, body)
	}
	if !strings.Contains(body, "seq=3") {
		t.Errorf("timeline missing attrs:\n%s", body)
	}

	// Unknown id says so; a non-hex id is a 400.
	if _, body := getBody(t, srv.URL+"/debug/trace?id=abcdef"); !strings.Contains(body, "no events") {
		t.Errorf("unknown id: %q", body)
	}
	if code, _ := getBody(t, srv.URL+"/debug/trace?id=zzz"); code != http.StatusBadRequest {
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
	srv := httptest.NewServer(NewMux(NewRegistry(), MuxOptions{Flight: fr}))
	defer srv.Close()

	code, body := getBody(t, srv.URL+"/debug/flight")
	if code != http.StatusOK || !strings.Contains(body, "flight.start") || !strings.Contains(body, "update.commit") {
		t.Errorf("/debug/flight: %d\n%s", code, body)
	}

	// Without a flight recorder the route falls through to the index 404.
	bare := httptest.NewServer(NewMux(NewRegistry(), MuxOptions{}))
	defer bare.Close()
	if code, _ := getBody(t, bare.URL+"/debug/flight"); code != http.StatusNotFound {
		t.Errorf("unconfigured /debug/flight status %d, want 404", code)
	}
}

func TestStatsRendersEventTimestamps(t *testing.T) {
	fr, err := OpenFlight(FlightConfig{FS: vfs.NewMem(1)})
	if err != nil {
		t.Fatal(err)
	}
	fr.Emit(Event{Name: "update.commit", Time: time.Date(2026, 8, 8, 14, 5, 9, 123456000, time.Local), Dur: time.Millisecond})
	srv := httptest.NewServer(NewMux(NewRegistry(), MuxOptions{Flight: fr}))
	defer srv.Close()
	code, body := getBody(t, srv.URL+"/stats")
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
	srv := httptest.NewServer(NewMux(NewRegistry(), MuxOptions{Flight: fr}))
	defer srv.Close()
	if code, body := getBody(t, srv.URL+"/debug/flight"); code != http.StatusOK || !strings.Contains(body, "no flight events") {
		t.Errorf("empty flight tail: %d %q", code, body)
	}
}
