package obs

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync/atomic"
	"time"
)

// numBuckets covers every non-negative int64: bucket 0 holds the value 0,
// bucket i (i ≥ 1) holds values in [2^(i-1), 2^i).
const numBuckets = 65

// A Histogram accumulates a distribution of non-negative int64 values
// (latencies in nanoseconds, sizes in bytes) in logarithmic buckets: bucket
// boundaries are powers of two, so an observation costs a few atomic adds
// and a snapshot's percentile estimates carry at most one octave of
// quantization error, reduced by linear interpolation within the bucket.
// The maximum is tracked exactly. The zero value is ready to use; a nil
// *Histogram discards observations.
type Histogram struct {
	sum     atomic.Int64
	max     atomic.Int64
	buckets [numBuckets]atomic.Uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// bucketBounds reports the half-open value range [lo, hi) of bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 1
	}
	lo = int64(1) << (i - 1)
	if i >= 63 {
		return lo, math.MaxInt64
	}
	return lo, int64(1) << i
}

// Observe records one value. Negative values are clamped to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// ObserveSince records the time elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) { h.ObserveDuration(time.Since(start)) }

// Snapshot is a point-in-time summary of a histogram. Values are in the
// unit that was observed (nanoseconds for durations, bytes for sizes).
type Snapshot struct {
	Count uint64
	Sum   int64
	Mean  int64
	Max   int64
	P50   int64
	P90   int64
	P99   int64

	buckets [numBuckets]uint64
}

// Snapshot captures the current distribution. Concurrent observations may
// be partially included, which is consistent enough for monitoring (the
// sum and max can transiently disagree with the bucket counts by in-flight
// observations). A nil histogram yields a zero snapshot.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	if h == nil {
		return s
	}
	for i := range s.buckets {
		s.buckets[i] = h.buckets[i].Load()
		s.Count += s.buckets[i]
	}
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	if s.Count > 0 {
		s.Mean = s.Sum / int64(s.Count)
	}
	s.P50 = s.Quantile(0.50)
	s.P90 = s.Quantile(0.90)
	s.P99 = s.Quantile(0.99)
	return s
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the captured
// distribution: find the bucket holding the target rank and interpolate
// linearly within its bounds. The estimate never exceeds the exact maximum.
func (s Snapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count-1) // 0-based fractional rank
	var seen uint64
	for i, n := range s.buckets {
		if n == 0 {
			continue
		}
		if rank < float64(seen+n) {
			lo, hi := bucketBounds(i)
			if hi > s.Max && s.Max >= lo {
				hi = s.Max + 1 // the bucket's population cannot exceed the exact max
			}
			frac := (rank - float64(seen)) / float64(n)
			est := float64(lo) + frac*float64(hi-lo)
			if est > float64(s.Max) {
				return s.Max
			}
			return int64(est)
		}
		seen += n
	}
	return s.Max
}

// String renders the snapshot as a compact JSON object, the form /metrics
// serves it in.
func (s Snapshot) String() string {
	return fmt.Sprintf(`{"count":%d,"sum":%d,"mean":%d,"p50":%d,"p90":%d,"p99":%d,"max":%d}`,
		s.Count, s.Sum, s.Mean, s.P50, s.P90, s.P99, s.Max)
}

// String renders the histogram as its snapshot's JSON object.
func (h *Histogram) String() string { return h.Snapshot().String() }

// DurationString formats the snapshot's summary fields as durations, for
// human-readable output of latency histograms.
func (s Snapshot) DurationString() string {
	return fmt.Sprintf("count=%d mean=%v p50=%v p90=%v p99=%v max=%v",
		s.Count,
		time.Duration(s.Mean).Round(time.Microsecond),
		time.Duration(s.P50).Round(time.Microsecond),
		time.Duration(s.P90).Round(time.Microsecond),
		time.Duration(s.P99).Round(time.Microsecond),
		time.Duration(s.Max).Round(time.Microsecond))
}

// SizeString formats the snapshot's summary fields as byte sizes.
func (s Snapshot) SizeString() string {
	return fmt.Sprintf("count=%d mean=%s p50=%s p90=%s p99=%s max=%s total=%s",
		s.Count, sizeStr(s.Mean), sizeStr(s.P50), sizeStr(s.P90), sizeStr(s.P99), sizeStr(s.Max), sizeStr(s.Sum))
}

func sizeStr(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Bar renders an ASCII distribution of the snapshot, one line per
// non-empty bucket, scaled to width characters.
func (s Snapshot) Bar(width int, format func(int64) string) string {
	if width <= 0 {
		width = 40
	}
	if format == nil {
		format = func(v int64) string { return fmt.Sprintf("%d", v) }
	}
	peak := slices.Max(s.buckets[:])
	if peak == 0 {
		return "  (empty)\n"
	}
	var b strings.Builder
	for i, n := range s.buckets {
		if n > 0 {
			lo, hi := bucketBounds(i)
			w := max(1, int(float64(width)*float64(n)/float64(peak)))
			fmt.Fprintf(&b, "  [%12s, %12s)  %-*s %d\n", format(lo), format(hi), width, strings.Repeat("#", w), n)
		}
	}
	return b.String()
}
