package obs

import (
	"bufio"
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"net"
	"net/url"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"time"
)

// AdminOptions selects the optional data sources behind the admin endpoint.
type AdminOptions struct {
	// Traces, if non-nil, serves /debug/trace: recent traces, and a full
	// per-trace timeline with ?id=<hex trace id>.
	Traces *TraceBuffer
	// Flight, if non-nil, serves /debug/flight, the live in-memory tail of
	// the crash-surviving flight recorder, and the recent-events section
	// of /stats.
	Flight *FlightRecorder
}

// An AdminServer is a running debug endpoint: an HTTP/1.1 responder that
// answers one GET per connection, so the daemon links no HTTP stack, TLS
// or expvar. Its routes:
//
//	/metrics       registry snapshot as JSON (counters, gauges, histogram
//	               percentile summaries)
//	/stats         the same, human-readable (?buckets=1 adds ASCII
//	               distributions), then the flight recorder's recent events
//	/debug/trace   recent traces; ?id=<hex> renders one commit timeline
//	/debug/flight  the flight recorder's in-memory tail
//	/debug/pprof/  the index; profile (CPU) and trace record ?seconds=,
//	               and <name> writes that runtime/pprof profile (text
//	               with ?debug=1; heap's ends in the runtime's MemStats)
type AdminServer struct {
	// Addr is the address the server is actually listening on (useful
	// when the requested address had port 0).
	Addr string

	ln     net.Listener
	routes map[string]route
	done   chan struct{} // closed when the accept loop has returned
}

type route = func(w *reply, q url.Values)

// maxRequest bounds the bytes read of one request: its line and headers;
// maxConns bounds the requests served at once (more are closed unread).
const maxRequest, maxConns = 8 << 10, 8

// ServeAdmin starts the admin endpoint on addr. It returns once the
// listener is bound; serving continues in a background goroutine until
// Close.
func ServeAdmin(addr string, r *Registry, opts AdminOptions) (*AdminServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	a := &AdminServer{Addr: ln.Addr().String(), ln: ln, routes: adminRoutes(r, opts), done: make(chan struct{})}
	go func() {
		defer close(a.done)
		sem := make(chan struct{}, maxConns) // a semaphore
		for {
			c, err := ln.Accept()
			if errors.Is(err, net.ErrClosed) {
				return
			} else if err != nil {
				time.Sleep(10 * time.Millisecond) // e.g. out of descriptors
				continue
			}
			select {
			case sem <- struct{}{}:
				go func() {
					a.serveConn(c)
					<-sem
				}()
			default:
				c.Close() // maxConns already in flight
			}
		}
	}()
	return a, nil
}

// Close stops accepting and returns once the accept loop has; requests
// already accepted run to completion.
func (a *AdminServer) Close() error {
	if a == nil {
		return nil
	}
	err := a.ln.Close()
	<-a.done
	return err
}

// serveConn reads one request under a 5 s deadline and maxRequest bytes,
// writes one response with a Content-Length, and closes the connection.
func (a *AdminServer) serveConn(c net.Conn) {
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	w := &reply{status: 200, ctype: textPlain}
	path, q, ok := readRequest(io.LimitReader(c, maxRequest))
	if h, found := a.routes[path]; !ok {
		w.fail(400, "malformed request")
	} else if found {
		h(w, q)
	} else {
		w.fail(404, "404 page not found")
	}
	c.SetWriteDeadline(time.Now().Add(10 * time.Second))
	fmt.Fprintf(c, "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s",
		w.status, statusText[w.status], w.ctype, w.body.Len(), w.body.Bytes())
}

// readRequest parses a GET request's line and skips its headers up to
// the blank line. ok is false for a request it cannot parse, a truncated
// one, or one that is not a GET.
func readRequest(r io.Reader) (path string, q url.Values, ok bool) {
	br := bufio.NewReaderSize(r, 1024)
	line, err := br.ReadString('\n')
	for h := line; err == nil && strings.TrimRight(h, "\r\n") != ""; {
		h, err = br.ReadString('\n')
	}
	method, rest, _ := strings.Cut(strings.TrimRight(line, "\r\n"), " ")
	target, proto, ok := strings.Cut(rest, " ")
	if err != nil || !ok || method != "GET" || !strings.HasPrefix(proto, "HTTP/1.") || !strings.HasPrefix(target, "/") {
		return "", nil, false
	}
	path, raw, _ := strings.Cut(target, "?")
	q, _ = url.ParseQuery(raw) // as net/url's URL.Query, a bad escape drops its pair
	return path, q, true
}

const textPlain = "text/plain; charset=utf-8"

var statusText = map[int]string{200: "OK", 400: "Bad Request", 404: "Not Found", 500: "Internal Server Error"}

// A reply is a response built whole before it is sent.
type reply struct {
	status int
	ctype  string
	body   bytes.Buffer
}

func (w *reply) Write(p []byte) (int, error) { return w.body.Write(p) }

func (w *reply) fail(status int, msg string) {
	w.status, w.ctype = status, textPlain
	w.body.Reset()
	w.body.WriteString(msg + "\n")
}

// adminRoutes builds the endpoint's route table; see AdminServer.
func adminRoutes(r *Registry, opts AdminOptions) map[string]route {
	index := func(w *reply, q url.Values) {
		fmt.Fprintf(w, "smalldb debug endpoint\n\n/metrics\n/stats (?buckets=1 for distributions)\n/debug/trace (?id=<trace> for a timeline)\n/debug/flight\n/debug/pprof/profile?seconds=N (CPU)\n/debug/pprof/trace?seconds=N\n/debug/pprof/<name>?debug=N, <name> one of:\n\n")
		for _, p := range pprof.Profiles() {
			fmt.Fprintf(w, "%6d %s\n", p.Count(), p.Name())
		}
	}
	routes := map[string]route{
		"/":             index,
		"/debug/pprof/": index,
		"/metrics": func(w *reply, q url.Values) {
			w.ctype = "application/json"
			if err := r.WriteJSON(w); err != nil {
				w.fail(500, err.Error())
			}
		},
		"/stats": func(w *reply, q url.Values) {
			fmt.Fprintf(w, "goroutines=%d\n\n", runtime.NumGoroutine())
			r.WriteText(w)
			if q.Get("buckets") != "" {
				fmt.Fprintf(w, "\nhistogram buckets:\n")
				r.Each(func(name string, v any) {
					if h, ok := v.(*Histogram); ok {
						if s := h.Snapshot(); s.Count > 0 {
							fmt.Fprintf(w, "\n%s:\n%s", name, s.Bar(40, bucketFormat(name)))
						}
					}
				})
			}
			if opts.Flight != nil {
				fmt.Fprintf(w, "\nrecent events:\n")
				for _, e := range opts.Flight.Events() {
					fmt.Fprintf(w, "  %s\n", e)
				}
			}
		},
		"/debug/pprof/profile": record("30", pprof.StartCPUProfile, pprof.StopCPUProfile),
		"/debug/pprof/trace":   record("1", trace.Start, trace.Stop),
	}
	for _, p := range pprof.Profiles() {
		routes["/debug/pprof/"+p.Name()] = func(w *reply, q url.Values) {
			debug, _ := strconv.Atoi(q.Get("debug"))
			if debug == 0 {
				w.ctype = "application/octet-stream"
			}
			if err := p.WriteTo(w, debug); err != nil {
				w.fail(500, err.Error())
			}
		}
	}
	if tb := opts.Traces; tb != nil {
		routes["/debug/trace"] = func(w *reply, q url.Values) {
			if idStr := q.Get("id"); idStr != "" {
				id, err := strconv.ParseUint(idStr, 16, 64)
				if err != nil {
					w.fail(400, "bad trace id (want hex)")
					return
				}
				evs := tb.Trace(TraceID(id))
				if len(evs) == 0 {
					fmt.Fprintf(w, "trace %016x: no events\n", id)
					return
				}
				fmt.Fprintf(w, "trace %016x (%d events)\n\n", id, len(evs))
				WriteTimeline(w, evs)
				return
			}
			ts := tb.Traces()
			if len(ts) == 0 {
				fmt.Fprintf(w, "no traces recorded\n")
				return
			}
			fmt.Fprintf(w, "recent traces (newest first; ?id=<trace> for the timeline):\n\n")
			for _, t := range ts {
				fmt.Fprintf(w, "  %016x  %-24s %3d events", uint64(t.Trace), t.Root, t.Events)
				if !t.Start.IsZero() {
					fmt.Fprintf(w, "  %s", t.Start.Format("15:04:05.000000"))
				}
				fmt.Fprintln(w)
			}
		}
	}
	if fr := opts.Flight; fr != nil {
		routes["/debug/flight"] = func(w *reply, q url.Values) {
			evs := fr.Events()
			if len(evs) == 0 {
				fmt.Fprintf(w, "no flight events\n")
				return
			}
			fmt.Fprintf(w, "flight recorder tail (%d events, oldest first):\n\n", len(evs))
			for _, e := range evs {
				fmt.Fprintf(w, "  %s\n", e)
			}
		}
	}
	return routes
}

// record is a route that runs a profiler into the reply for ?seconds=
// (def if absent).
func record(def string, start func(io.Writer) error, stop func()) route {
	return func(w *reply, q url.Values) {
		secs, err := strconv.Atoi(cmp.Or(q.Get("seconds"), def))
		if err != nil || secs <= 0 || secs > 3600 {
			w.fail(400, "bad seconds")
			return
		}
		if err := start(w); err != nil {
			w.fail(500, err.Error())
			return
		}
		time.Sleep(time.Duration(secs) * time.Second)
		stop()
		w.ctype = "application/octet-stream"
	}
}

func bucketFormat(name string) func(int64) string {
	if strings.HasSuffix(name, "_ns") {
		return func(v int64) string { return time.Duration(v).String() }
	}
	if strings.HasSuffix(name, "_bytes") {
		return sizeStr
	}
	return nil
}
