package main

import (
	"math"
	"sort"
)

// slice is one window: the latencies, in ns, of the calls in one slice of the
// op streams. Windows are equal op counts, not equal times, so every run has
// the same number of them whatever the host's speed.
type slice struct {
	lookup, list, set []uint32
	echo              []uint32 // one after every op
	durable           []uint32 // durable-echo calls, one after every Set
	traced            bool
}

func (w *slice) add(o slice) {
	w.lookup = append(w.lookup, o.lookup...)
	w.list = append(w.list, o.list...)
	w.set = append(w.set, o.set...)
	w.echo = append(w.echo, o.echo...)
	w.durable = append(w.durable, o.durable...)
}

func mean(sum, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

func sumNs(v []uint32) (sum int64) {
	for _, x := range v {
		sum += int64(x)
	}
	return sum
}

func medianNs(v []uint32) float64 {
	s := append([]uint32(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return percentile(s, 50)
}

// minWindowSamples is the fewest calls of a kind a window needs before its
// median is allowed into the median of windows.
const minWindowSamples = 20

// relOverWindows returns the median over windows of (median op latency ÷
// median yardstick latency), skipping windows with too few samples of either,
// and the number of windows used. Medians, not means: on a shared host the
// tail of either distribution is the hypervisor's, and the tails are
// reported on their own (client.*_p99_us). A run too short to fill half its
// windows reports the ratio of the whole run's medians instead (0 windows
// used).
func relOverWindows(ws []slice, op, yardstick func(slice) []uint32) (float64, int) {
	var ratios []float64
	for _, w := range ws {
		if v, y := op(w), yardstick(w); len(v) >= minWindowSamples && len(y) >= minWindowSamples {
			ratios = append(ratios, medianNs(v)/medianNs(y))
		}
	}
	if 2*len(ratios) >= len(ws) {
		return median(ratios), len(ratios)
	}
	var all, ys []uint32
	for _, w := range ws {
		all, ys = append(all, op(w)...), append(ys, yardstick(w)...)
	}
	if len(all) == 0 || len(ys) == 0 {
		return 0, 0
	}
	return medianNs(all) / medianNs(ys), 0
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles matches Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), which is what the driver judges spreads with.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j) // after clamping, as Python does: two points extrapolate
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// iqrShare is the interquartile distance as a share of the median.
func iqrShare(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// tailPercentile returns the highest of p50, p90, p99, p99.9 that still has
// at least ten samples beyond it among n samples (0 if not even p50 does).
func tailPercentile(n int) float64 {
	best := 0.0
	for _, permille := range []int{500, 900, 990, 999} { // integers: 10000 × 0.1% must be exactly 10
		if n*(1000-permille) >= 10*1000 {
			best = float64(permille) / 10
		}
	}
	return best
}

// percentile reads the p-th percentile (nearest rank) from sorted samples.
func percentile(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return float64(sorted[rank-1])
}

// latSummary is the mean, p50 and tail of one kind of call in microseconds.
// tailP is min(99, tailPercentile(n)): the issue names the metric p99, and
// with fewer than 1000 samples it is honestly a lower percentile.
type latSummary struct {
	n             int
	meanUs, p50Us float64
	tailP, tailUs float64
}

func summarize(samples []uint32) latSummary {
	if len(samples) == 0 {
		return latSummary{}
	}
	s := append([]uint32(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	var sum int64
	for _, v := range s {
		sum += int64(v)
	}
	out := latSummary{n: len(s), meanUs: float64(sum) / float64(len(s)) / 1e3, p50Us: percentile(s, 50) / 1e3}
	out.tailP = math.Min(99, tailPercentile(len(s)))
	if out.tailP > 0 {
		out.tailUs = percentile(s, out.tailP) / 1e3
	}
	return out
}
