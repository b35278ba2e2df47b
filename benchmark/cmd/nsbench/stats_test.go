package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median sorted its argument in place")
	}
}

// The expected values are Python's statistics.quantiles(v, n=4), which is
// what the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5})
	if !near(q1, 2) || !near(q2, 4) || !near(q3, 5) {
		t.Errorf("quartiles(pi digits) = %v %v %v, want 2 4 5", q1, q2, q3)
	}
	// Two points: Python extrapolates to 0.75, 1.5, 2.25.
	q1, q2, q3 = quartiles([]float64{1, 2})
	if !near(q1, 0.75) || !near(q2, 1.5) || !near(q3, 2.25) {
		t.Errorf("quartiles(1,2) = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("iqrShare(1..10) = %v, want 1", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {1 << 20, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]uint32, 100)
	for i := range s {
		s[i] = uint32(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestSummarizeNamesTheTailItCanSupport(t *testing.T) {
	s := make([]uint32, 200) // enough for p90, not for p99
	for i := range s {
		s[i] = uint32(1000 * (i + 1))
	}
	got := summarize(s)
	if got.n != 200 || got.tailP != 90 || !near(got.tailUs, 180) || !near(got.p50Us, 100) || !near(got.meanUs, 100.5) {
		t.Errorf("summarize = %+v", got)
	}
	big := make([]uint32, 5000)
	if got := summarize(big); got.tailP != 99 {
		t.Errorf("5000 samples support p99.9, but the metric is named p99: tailP = %v", got.tailP)
	}
	if got := summarize(nil); got.n != 0 || got.meanUs != 0 {
		t.Errorf("summarize(nil) = %+v", got)
	}
}

// lat returns n latencies whose median is about med: a spread around it and
// one huge outlier, which a mean would follow and a median must not.
func lat(n int, med uint32) []uint32 {
	v := make([]uint32, n)
	for i := range v {
		v[i] = med - uint32(n/2) + uint32(i)
	}
	v[n-1] = 1 << 30
	return v
}

func TestRelOverWindowsIsMedianOfWindowMedianRatios(t *testing.T) {
	lookups := func(w slice) []uint32 { return w.lookup }
	echoes := func(w slice) []uint32 { return w.echo }
	ws := []slice{
		{lookup: lat(101, 2000), echo: lat(101, 1000)},                  // ratio 2
		{lookup: lat(101, 3000), echo: lat(101, 1000)},                  // ratio 3
		{lookup: lat(101, 9000), echo: lat(101, 1000)},                  // ratio 9: a stall
		{lookup: lat(minWindowSamples-1, 5000), echo: lat(101, 1000)},   // too few lookups
		{lookup: lat(101, 2000), echo: lat(minWindowSamples-1, 100000)}, // too few echoes
	}
	got, used := relOverWindows(ws, lookups, echoes)
	if used != 3 || !near(got, 3) {
		t.Errorf("relOverWindows = %v over %d windows, want 3 over 3", got, used)
	}
	// Fewer than half the windows filled: the whole run's medians instead.
	short := []slice{{lookup: lat(5, 4000), echo: lat(5, 1000)}, {lookup: lat(5, 4000), echo: lat(5, 1000)}}
	if got, used := relOverWindows(short, lookups, echoes); used != 0 || !near(got, 4) {
		t.Errorf("relOverWindows on a short run = %v over %d windows, want 4 over 0", got, used)
	}
	if got, used := relOverWindows(nil, lookups, echoes); got != 0 || used != 0 {
		t.Errorf("relOverWindows(nil) = %v, %d", got, used)
	}
	if got, used := relOverWindows([]slice{{echo: lat(50, 1000)}}, lookups, echoes); got != 0 || used != 0 {
		t.Errorf("relOverWindows with no lookups at all = %v, %d", got, used)
	}
}

func TestSliceAddAndSums(t *testing.T) {
	a := slice{lookup: []uint32{1, 2}, list: []uint32{3}, set: []uint32{4}, echo: []uint32{5, 6, 7}}
	a.add(slice{lookup: []uint32{10}, echo: []uint32{20}, durable: []uint32{30}})
	if len(a.lookup) != 3 || len(a.list) != 1 || len(a.set) != 1 || len(a.echo) != 4 || len(a.durable) != 1 {
		t.Errorf("add = %+v", a)
	}
	if sumNs(a.lookup) != 13 || sumNs(nil) != 0 || mean(sumNs(a.echo), 4) != 9.5 || mean(1, 0) != 0 {
		t.Error("sumNs or mean is off")
	}
	if medianNs([]uint32{9, 1, 5}) != 5 || medianNs(nil) != 0 {
		t.Error("medianNs is off")
	}
}
