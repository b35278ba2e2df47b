// Package obs is the system's observability substrate: atomic counters and
// gauges, log-bucketed latency histograms with percentile snapshots, a
// pluggable structured-event Tracer, and a Registry that exports everything
// as JSON and text over a small HTTP admin endpoint.
//
// The paper's §5 evaluation decomposes every update into verify / pickle /
// commit / apply phases; this package generalizes that instrumentation so
// any subsystem can publish distributions rather than cumulative sums, and
// a running daemon can be watched live. Everything is stdlib-only and
// allocation-free on the hot paths (one atomic add per counter bump, a
// handful per histogram observation).
//
// All metric types tolerate nil receivers: a subsystem wired to a nil
// *Registry gets nil metrics whose methods are no-ops, so call sites need
// no conditionals and an uninstrumented store pays only a nil check.
package obs

import (
	"fmt"
	"sync/atomic"
)

// A Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter discards updates.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reports the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// String renders the counter as its decimal value.
func (c *Counter) String() string { return fmt.Sprintf("%d", c.Value()) }

// A Gauge is an atomic instantaneous value (open connections, queue depth).
// The zero value is ready to use; a nil *Gauge discards updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Inc increases the gauge by one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec decreases the gauge by one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value reports the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// String renders the gauge as its decimal value.
func (g *Gauge) String() string { return fmt.Sprintf("%d", g.Value()) }
