package obs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"smalldb/internal/vfs"
)

// FuzzReadFlight feeds arbitrary bytes to ReadFlight as the ring file: it
// must return events or a typed error, never panic, and read no further
// than the file's end however many slots its header claims.
func FuzzReadFlight(f *testing.F) {
	fs := vfs.NewMem(1)
	fr, err := OpenFlight(FlightConfig{FS: fs, Slots: 4, SlotSize: 96})
	if err != nil {
		f.Fatal(err)
	}
	fr.Emit(Event{Name: "update.commit", Dur: time.Millisecond, Trace: 7, Attrs: []Attr{A("seq", 3)}})
	fr.Close()
	ring, err := vfs.ReadFile(fs, "flightrec")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ring)
	f.Add(ring[:len(ring)-40])
	f.Add(ring[:flightHeaderLen])
	huge := bytes.Clone(ring[:flightHeaderLen])
	binary.LittleEndian.PutUint32(huge[4:], 1<<20)
	binary.LittleEndian.PutUint32(huge[8:], 1<<20)
	f.Add(huge)
	f.Add([]byte("FLRH"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m := vfs.NewMetered(vfs.NewMem(1), vfs.Profile{}, 0)
		if err := vfs.WriteFile(m, "flightrec", data); err != nil {
			t.Fatal(err)
		}
		m.ResetStats()
		events, err := ReadFlight(m, "")
		if err != nil {
			if events != nil || !errors.Is(err, errNotFlight) && !errors.Is(err, io.EOF) {
				t.Fatalf("ReadFlight = %d events, untyped error %v", len(events), err)
			}
			return
		}
		if reads := m.Stats().Reads; reads > 2+int64(len(data))/flightSlotOver {
			t.Fatalf("%d-byte ring cost %d reads", len(data), reads)
		}
		if len(events) > len(data)/flightSlotOver {
			t.Fatalf("%d-byte ring decoded %d events", len(data), len(events))
		}
	})
}

// fuzzConn is a connection whose request is a fixed byte string; it
// counts what the server reads and keeps what it writes; its other
// methods are net.Conn's nil ones, which serveConn never calls.
type fuzzConn struct {
	net.Conn
	req  *bytes.Reader
	read int
	out  bytes.Buffer
}

func (c *fuzzConn) Read(p []byte) (int, error) {
	n, err := c.req.Read(p)
	c.read += n
	return n, err
}

func (c *fuzzConn) Write(p []byte) (int, error)      { return c.out.Write(p) }
func (c *fuzzConn) SetReadDeadline(time.Time) error  { return nil }
func (c *fuzzConn) SetWriteDeadline(time.Time) error { return nil }
func (c *fuzzConn) Close() error                     { return nil }

// FuzzAdminRequest feeds arbitrary bytes to the admin endpoint as one
// request: it must read no more than maxRequest bytes, never panic, and
// answer with a well-formed status line whose Content-Length is the body
// that follows. The two routes that sleep for their ?seconds= are left
// out; every other route and named profile is live.
func FuzzAdminRequest(f *testing.F) {
	for _, req := range []string{
		"GET / HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET /metrics HTTP/1.1\r\nHost: x\r\nUser-Agent: Go-http-client/1.1\r\n\r\n",
		"GET /stats?buckets=1 HTTP/1.0\r\n\r\n",
		"GET /debug/trace?id=zzz HTTP/1.1\r\n\r\n",
		"GET /debug/flight HTTP/1.1\r\n\r\n",
		"GET /debug/pprof/heap?debug=1 HTTP/1.1\r\n\r\n",
		"POST /metrics HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc",
		"GET /metrics HTTP/1.1\r\nX: " + strings.Repeat("a", maxRequest) + "\r\n\r\n",
		"GET /%zz?%zz HTTP/1.1\n\n",
		"",
	} {
		f.Add([]byte(req))
	}
	r := NewRegistry()
	r.Counter("core_updates").Inc()
	r.Histogram("core_update_commit_ns").Observe(1000)
	fr, err := OpenFlight(FlightConfig{FS: vfs.NewMem(1), Slots: 4})
	if err != nil {
		f.Fatal(err)
	}
	a := &AdminServer{routes: adminRoutes(r, AdminOptions{Traces: NewTraceBuffer(8), Flight: fr})}
	delete(a.routes, "/debug/pprof/profile")
	delete(a.routes, "/debug/pprof/trace")
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &fuzzConn{req: bytes.NewReader(data)}
		a.serveConn(c)
		if c.read > maxRequest {
			t.Fatalf("read %d bytes of the request, past the %d-byte bound", c.read, maxRequest)
		}
		head, body, ok := strings.Cut(c.out.String(), "\r\n\r\n")
		lines := strings.Split(head, "\r\n")
		proto, rest, _ := strings.Cut(lines[0], " ")
		code, text, _ := strings.Cut(rest, " ")
		status, _ := strconv.Atoi(code)
		if !ok || proto != "HTTP/1.1" || statusText[status] != text || len(lines) != 4 ||
			lines[2] != fmt.Sprintf("Content-Length: %d", len(body)) || lines[3] != "Connection: close" {
			t.Fatalf("malformed response to %q:\n%s", data, head)
		}
	})
}
