package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// A Registry names and owns a set of metrics. Metric getters are
// get-or-create, so independent subsystems sharing a registry converge on
// the same metric objects by name. A nil *Registry hands out nil metrics
// (whose methods are no-ops), so wiring is unconditional at every call
// site.
//
// Naming convention: lowercase snake_case, prefixed by subsystem, with a
// unit suffix for histograms — core_update_commit_ns, wal_flush_bytes,
// rpc_open_conns.
type Registry struct {
	mu   sync.Mutex
	vars map[string]any // *Counter | *Gauge | *Histogram | func() any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{vars: make(map[string]any)}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter { return metric[Counter](r, name) }

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge { return metric[Gauge](r, name) }

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram { return metric[Histogram](r, name) }

// metric returns the *T named name, creating it if needed. A name already
// taken by another kind of metric yields nil, which drops its updates.
func metric[T any](r *Registry, name string) *T {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.vars[name]; ok {
		m, _ := v.(*T)
		return m
	}
	m := new(T)
	r.vars[name] = m
	return m
}

// Register installs an existing metric (or a func() any computed on
// snapshot) under name, replacing any previous entry. Subsystems that own
// their metrics privately use it to additionally expose them here.
func (r *Registry) Register(name string, v any) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.vars[name] = v
	r.mu.Unlock()
}

// Names reports the registered metric names, sorted.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.vars))
	for n := range r.vars {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Each calls fn for every metric in name order. The value is the live
// metric object (*Counter, *Gauge, *Histogram) or the result of a
// registered func.
func (r *Registry) Each(fn func(name string, v any)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	type entry struct {
		name string
		v    any
	}
	entries := make([]entry, 0, len(r.vars))
	for n, v := range r.vars {
		entries = append(entries, entry{n, v})
	}
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	for _, e := range entries {
		if f, ok := e.v.(func() any); ok {
			fn(e.name, f())
		} else {
			fn(e.name, e.v)
		}
	}
}

// Snapshot renders every metric to a JSON-encodable value: counters to
// uint64, gauges to int64, histograms to their Snapshot.
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any)
	r.Each(func(name string, v any) {
		out[name] = snapshotValue(v)
	})
	return out
}

func snapshotValue(v any) any {
	switch m := v.(type) {
	case *Counter:
		return m.Value()
	case *Gauge:
		return m.Value()
	case *Histogram:
		return m.Snapshot()
	case Snapshot:
		return m
	default:
		return v
	}
}

// MarshalJSON encodes a Snapshot with its summary fields.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	return []byte(s.String()), nil
}

// WriteJSON writes the registry snapshot as pretty-printed JSON — the
// /metrics endpoint's body.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteText writes a human-readable rendering of every metric — the /stats
// endpoint's body. Histogram names ending in _ns are formatted as
// durations, _bytes as sizes.
func (r *Registry) WriteText(w io.Writer) {
	r.Each(func(name string, v any) {
		switch m := v.(type) {
		case *Counter:
			fmt.Fprintf(w, "%-40s %d\n", name, m.Value())
		case *Gauge:
			fmt.Fprintf(w, "%-40s %d\n", name, m.Value())
		case *Histogram:
			writeHistogramText(w, name, m.Snapshot())
		case Snapshot:
			writeHistogramText(w, name, m)
		default:
			fmt.Fprintf(w, "%-40s %v\n", name, m)
		}
	})
}

func writeHistogramText(w io.Writer, name string, s Snapshot) {
	if strings.HasSuffix(name, "_ns") {
		fmt.Fprintf(w, "%-40s %s\n", name, s.DurationString())
	} else if strings.HasSuffix(name, "_bytes") {
		fmt.Fprintf(w, "%-40s %s\n", name, s.SizeString())
	} else {
		fmt.Fprintf(w, "%-40s %s\n", name, s.String())
	}
}
