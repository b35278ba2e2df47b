package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"time"
)

// MuxOptions selects the optional data sources behind the admin mux.
type MuxOptions struct {
	// Traces, if non-nil, serves /debug/trace: recent traces, and a full
	// per-trace timeline with ?id=<hex trace id>.
	Traces *TraceBuffer
	// Flight, if non-nil, serves /debug/flight, the live in-memory tail of
	// the crash-surviving flight recorder, and the recent-events section
	// of /stats.
	Flight *FlightRecorder
}

// NewMux builds the admin HTTP mux for a registry:
//
//	/metrics       registry snapshot as JSON (counters, gauges, histogram
//	               percentile summaries)
//	/stats         the same, human-readable (durations and sizes formatted,
//	               ASCII bucket bars with ?buckets=1), then the flight
//	               recorder's recent events
//	/debug/trace   recent traces; ?id=<hex> renders one commit timeline
//	/debug/flight  the flight recorder's in-memory tail
//	/debug/pprof/  the standard Go profiling endpoints
//	/debug/vars    expvar (the registry is published there too)
func NewMux(r *Registry, opts MuxOptions) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := r.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "goroutines=%d\n\n", runtime.NumGoroutine())
		r.WriteText(w)
		if req.URL.Query().Get("buckets") != "" {
			fmt.Fprintf(w, "\nhistogram buckets:\n")
			r.Each(func(name string, v any) {
				h, ok := v.(*Histogram)
				if !ok {
					return
				}
				s := h.Snapshot()
				if s.Count == 0 {
					return
				}
				fmt.Fprintf(w, "\n%s:\n%s", name, s.Bar(40, bucketFormat(name)))
			})
		}
		if opts.Flight != nil {
			fmt.Fprintf(w, "\nrecent events:\n")
			for _, e := range opts.Flight.Events() {
				fmt.Fprintf(w, "  %s\n", e)
			}
		}
	})
	if opts.Traces != nil {
		tb := opts.Traces
		mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			if idStr := req.URL.Query().Get("id"); idStr != "" {
				id, err := strconv.ParseUint(idStr, 16, 64)
				if err != nil {
					http.Error(w, "bad trace id (want hex)", http.StatusBadRequest)
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
		})
	}
	if opts.Flight != nil {
		fr := opts.Flight
		mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			evs := fr.Events()
			if len(evs) == 0 {
				fmt.Fprintf(w, "no flight events\n")
				return
			}
			fmt.Fprintf(w, "flight recorder tail (%d events, oldest first):\n\n", len(evs))
			for _, e := range evs {
				fmt.Fprintf(w, "  %s\n", e)
			}
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", http.DefaultServeMux)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprintf(w, "smalldb debug endpoint\n\n/metrics\n/stats (?buckets=1 for distributions)\n/debug/trace (?id=<trace> for a timeline)\n/debug/flight\n/debug/pprof/\n/debug/vars\n")
	})
	return mux
}

func bucketFormat(name string) func(int64) string {
	if hasSuffix(name, "_ns") {
		return func(v int64) string { return time.Duration(v).String() }
	}
	if hasSuffix(name, "_bytes") {
		return sizeStr
	}
	return nil
}

// An AdminServer is a running debug HTTP endpoint.
type AdminServer struct {
	// Addr is the address the server is actually listening on (useful
	// when the requested address had port 0).
	Addr string

	srv *http.Server
	ln  net.Listener
}

// ServeAdmin starts the admin endpoint on addr, publishing the registry to
// expvar as a side effect. It returns once the listener is bound; serving
// continues in a background goroutine until Close.
func ServeAdmin(addr string, r *Registry, opts MuxOptions) (*AdminServer, error) {
	r.PublishExpvar("smalldb_")
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: NewMux(r, opts), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return &AdminServer{Addr: ln.Addr().String(), srv: srv, ln: ln}, nil
}

// Close stops the admin endpoint.
func (a *AdminServer) Close() error {
	if a == nil {
		return nil
	}
	return a.srv.Close()
}
